package topology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// The text format below is a simplified Rocketfuel-style map: one
// record per line, '#' comments, declared in two sections:
//
//	node <index> <label> <backbone|access|virtual>
//	link <u> <v> <capacity-mbps>
//
// Node indices must be declared densely starting at 0, in order, before
// any link referencing them. The paper's instances come from maps
// inferred by the Rocketfuel tool [21]; this format lets fixed maps be
// checked into the repository and exchanged between the CLI tools.

// Write serializes a POP.
func Write(w io.Writer, pop *POP) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# POP: %d routers, %d endpoints, %d links\n",
		pop.Routers(), len(pop.Endpoints), pop.G.NumEdges())
	for n := 0; n < pop.G.NumNodes(); n++ {
		id := graph.NodeID(n)
		fmt.Fprintf(bw, "node %d %s %s\n", n, pop.G.Label(id), pop.Kind[n])
	}
	for _, e := range pop.G.Edges() {
		fmt.Fprintf(bw, "link %d %d %g\n", e.U, e.V, e.Capacity)
	}
	return bw.Flush()
}

// Read parses a POP in the format produced by Write. Malformed input
// returns an error — never a panic: the parser is fuzzed (FuzzRead)
// against malformed sections, out-of-order and non-dense node indices,
// self-loop links and non-finite capacities.
func Read(r io.Reader) (*POP, error) {
	sc := bufio.NewScanner(r)
	g := graph.New()
	pop := &POP{G: g}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 4 {
				return nil, fmt.Errorf("topology: line %d: node needs 3 fields", lineNo)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx != g.NumNodes() {
				return nil, fmt.Errorf("topology: line %d: node index %q must be the next dense index %d", lineNo, fields[1], g.NumNodes())
			}
			id := g.AddNode(fields[2])
			switch fields[3] {
			case "backbone":
				pop.Kind = append(pop.Kind, Backbone)
				pop.Backbone = append(pop.Backbone, id)
			case "access":
				pop.Kind = append(pop.Kind, Access)
				pop.Access = append(pop.Access, id)
			case "virtual":
				pop.Kind = append(pop.Kind, Virtual)
				pop.Endpoints = append(pop.Endpoints, id)
			default:
				return nil, fmt.Errorf("topology: line %d: unknown node kind %q", lineNo, fields[3])
			}
		case "link":
			if len(fields) != 4 {
				return nil, fmt.Errorf("topology: line %d: link needs 3 fields", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			cap, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("topology: line %d: bad link fields", lineNo)
			}
			if u < 0 || u >= g.NumNodes() || v < 0 || v >= g.NumNodes() {
				return nil, fmt.Errorf("topology: line %d: link endpoint out of range", lineNo)
			}
			if u == v {
				// graph.AddEdge panics on self-loops; reject them here so
				// the parser returns errors, never panics.
				return nil, fmt.Errorf("topology: line %d: self-loop link on node %d", lineNo, u)
			}
			// The comparison form also rejects NaN (NaN <= 0 is false,
			// but so is NaN > 0).
			if !(cap > 0) || math.IsInf(cap, 0) {
				return nil, fmt.Errorf("topology: line %d: capacity %g not positive and finite", lineNo, cap)
			}
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), cap)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("topology: empty map")
	}
	return pop, nil
}
