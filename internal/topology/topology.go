// Package topology generates and serializes POP topologies following
// the two-level hierarchical architecture of the paper's §2 / Figure 2:
// backbone (core) routers interconnected among themselves, access
// routers homed onto the backbone, and virtual endpoint nodes standing
// for the customer networks and peering links whose traffic enters and
// leaves the POP (§4.4: "the generated network includes some virtual
// nodes that represent sources and targets of the traffic and that are
// not considered as routers in the POP").
//
// The paper derives its instances from Rocketfuel-inferred ISP maps; we
// substitute a seeded generator tuned to reproduce the paper's instance
// sizes (10 routers / 27 links / 132 traffics; 15 routers / 71 links /
// 1980 traffics), plus a Rocketfuel-style text format for bundling and
// exchanging fixed maps (see DESIGN.md §4).
package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// NodeKind classifies POP nodes.
type NodeKind int

const (
	// Backbone routers connect the POP to other POPs and carry transit.
	Backbone NodeKind = iota
	// Access routers aggregate customer links onto the backbone.
	Access
	// Virtual nodes are traffic endpoints (customers, peers); they are
	// not routers of the POP.
	Virtual
)

func (k NodeKind) String() string {
	switch k {
	case Backbone:
		return "backbone"
	case Access:
		return "access"
	case Virtual:
		return "virtual"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Link capacities in Mb/s for the classes the paper mentions (§3:
// "traffic volume ranges from tens of Mb/s on OC-3 access links to
// 10 Gb/s on OC-192 backbone links").
const (
	OC3   = 155.0
	OC12  = 622.0
	OC48  = 2488.0
	OC192 = 9953.0
)

// POP is a generated point of presence.
type POP struct {
	G *graph.Graph
	// Kind classifies every node of G.
	Kind []NodeKind
	// Backbone, Access and Endpoints list node IDs by class. Endpoints
	// are the virtual sources/targets of traffic.
	Backbone  []graph.NodeID
	Access    []graph.NodeID
	Endpoints []graph.NodeID
}

// Routers returns the number of actual routers (backbone + access).
func (p *POP) Routers() int { return len(p.Backbone) + len(p.Access) }

// IsRouter reports whether n is a backbone or access router.
func (p *POP) IsRouter(n graph.NodeID) bool { return p.Kind[n] != Virtual }

// Config parameterizes Generate. The zero value is invalid; use one of
// the presets (Paper10, Paper15, Paper29, Paper80) or fill in the fields.
type Config struct {
	// Routers is the number of POP routers (backbone + access).
	Routers int
	// BackboneFraction is the share of routers that are backbone
	// routers; default 0.4, minimum 2 routers.
	BackboneFraction float64
	// InterRouterLinks is the number of router-to-router links. It is
	// clamped below at the minimum connected layout (access single-homed
	// plus a backbone ring) and above at the complete layout.
	InterRouterLinks int
	// Endpoints is the number of virtual traffic endpoints; each
	// attaches with one link to a router, so the total link count is
	// InterRouterLinks + Endpoints.
	Endpoints int
	// PeerFraction is the share of endpoints attached to backbone
	// routers (peering links); the rest attach to access routers
	// (customer links). Default 0.25.
	PeerFraction float64
	// Seed drives all random choices; the same Config generates the
	// same POP.
	Seed int64
}

// Presets reproducing the paper's evaluation instances. Endpoint counts
// are chosen so that all ordered endpoint pairs give the paper's traffic
// counts (12·11 = 132, 45·44 = 1980) and total link counts match the
// reported 27 and 71.
var (
	// Paper10 is the Fig 7 instance: 10 routers, 27 links, 132 traffics.
	Paper10 = Config{Routers: 10, InterRouterLinks: 15, Endpoints: 12}
	// Paper15 is the Fig 8 instance: 15 routers, 71 links, 1980 traffics.
	Paper15 = Config{Routers: 15, InterRouterLinks: 26, Endpoints: 45}
	// Paper29 is the Fig 10 instance (29 routers).
	Paper29 = Config{Routers: 29, InterRouterLinks: 52, Endpoints: 40}
	// Paper80 is the Fig 11 instance (80 routers).
	Paper80 = Config{Routers: 80, InterRouterLinks: 150, Endpoints: 60}
)

// Preset returns the paper preset named "paper10", "paper15", "paper29"
// or "paper80".
func Preset(name string) (Config, error) {
	switch name {
	case "paper10":
		return Paper10, nil
	case "paper15":
		return Paper15, nil
	case "paper29":
		return Paper29, nil
	case "paper80":
		return Paper80, nil
	}
	return Config{}, fmt.Errorf("unknown preset %q", name)
}

func (c Config) withDefaults() Config {
	if c.BackboneFraction == 0 {
		c.BackboneFraction = 0.4
	}
	if c.PeerFraction == 0 {
		c.PeerFraction = 0.25
	}
	return c
}

// Generate builds a POP from the configuration. It panics on impossible
// configurations (fewer than 3 routers or fewer than 2 endpoints).
func Generate(cfg Config) *POP {
	return GenerateRand(cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// GenerateRand is Generate drawing every random choice from the given
// rng instead of cfg.Seed (which is ignored). It is the explicit-seed
// entry the scenario families use: callers own the random stream, so
// one seed can deterministically drive a whole topology + traffic
// pipeline.
func GenerateRand(cfg Config, rng *rand.Rand) *POP {
	cfg = cfg.withDefaults()
	if cfg.Routers < 3 {
		panic(fmt.Sprintf("topology: need at least 3 routers, got %d", cfg.Routers))
	}
	if cfg.Endpoints < 2 {
		panic(fmt.Sprintf("topology: need at least 2 endpoints, got %d", cfg.Endpoints))
	}

	nb := int(float64(cfg.Routers)*cfg.BackboneFraction + 0.5)
	if nb < 2 {
		nb = 2
	}
	if nb > cfg.Routers-1 {
		nb = cfg.Routers - 1
	}
	na := cfg.Routers - nb

	g := graph.New()
	pop := &POP{G: g}
	for i := 0; i < nb; i++ {
		n := g.AddNode(fmt.Sprintf("bb%d", i))
		pop.Backbone = append(pop.Backbone, n)
		pop.Kind = append(pop.Kind, Backbone)
	}
	for i := 0; i < na; i++ {
		n := g.AddNode(fmt.Sprintf("ar%d", i))
		pop.Access = append(pop.Access, n)
		pop.Kind = append(pop.Kind, Access)
	}

	// Minimum connected layout: backbone ring + single-homed access.
	type pair struct{ u, v graph.NodeID }
	present := make(map[pair]bool)
	addLink := func(u, v graph.NodeID, capacity float64) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if present[pair{u, v}] {
			return false
		}
		present[pair{u, v}] = true
		g.AddEdge(u, v, capacity)
		return true
	}
	if nb == 2 {
		addLink(pop.Backbone[0], pop.Backbone[1], OC192)
	} else {
		for i := 0; i < nb; i++ {
			addLink(pop.Backbone[i], pop.Backbone[(i+1)%nb], OC192)
		}
	}
	for _, a := range pop.Access {
		b := pop.Backbone[rng.Intn(nb)]
		addLink(a, b, OC48)
	}

	// Extra links up to InterRouterLinks: backbone chords, access
	// dual-homing, or access-access shortcuts.
	maxLinks := cfg.Routers * (cfg.Routers - 1) / 2
	want := cfg.InterRouterLinks
	if want < g.NumEdges() {
		want = g.NumEdges()
	}
	if want > maxLinks {
		want = maxLinks
	}
	for g.NumEdges() < want {
		switch rng.Intn(3) {
		case 0: // backbone chord
			u := pop.Backbone[rng.Intn(nb)]
			v := pop.Backbone[rng.Intn(nb)]
			addLink(u, v, OC192)
		case 1: // extra access uplink
			a := pop.Access[rng.Intn(na)]
			b := pop.Backbone[rng.Intn(nb)]
			addLink(a, b, OC48)
		default: // access-access shortcut
			u := pop.Access[rng.Intn(na)]
			v := pop.Access[rng.Intn(na)]
			addLink(u, v, OC12)
		}
	}

	// Virtual endpoints: peers on backbone routers, customers on access
	// routers, one link each.
	for i := 0; i < cfg.Endpoints; i++ {
		if rng.Float64() < cfg.PeerFraction {
			n := g.AddNode(fmt.Sprintf("peer%d", i))
			pop.Kind = append(pop.Kind, Virtual)
			pop.Endpoints = append(pop.Endpoints, n)
			g.AddEdge(n, pop.Backbone[rng.Intn(nb)], OC48)
		} else {
			n := g.AddNode(fmt.Sprintf("cust%d", i))
			pop.Kind = append(pop.Kind, Virtual)
			pop.Endpoints = append(pop.Endpoints, n)
			g.AddEdge(n, pop.Access[rng.Intn(na)], OC12)
		}
	}
	return pop
}
