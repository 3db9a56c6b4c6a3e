// Command passiveplace solves the Partial Passive Monitoring problem
// PPM(k) (§4) on a generated or loaded POP and prints the chosen links.
// Solvers are addressed by registry name; -timeout bounds the solve and
// returns the best incumbent found when it fires.
//
// Usage:
//
//	passiveplace -preset paper10 -seed 1 -k 0.95 -method ilp
//	passiveplace -map pop.map -k 1 -method greedy-load
//	passiveplace -family waxman -size 40 -seed 7 -k 0.95 -method portfolio
//	passiveplace -preset paper10 -k 0.9 -method ilp -budget 5
//	passiveplace -preset paper15 -k 1 -method portfolio -timeout 2s
//	passiveplace -solvers
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "passiveplace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("passiveplace", flag.ContinueOnError)
	preset := fs.String("preset", "paper10", "paper10|paper15|paper29|paper80")
	family := fs.String("family", "", "generate from a scenario family instead of a preset (overrides -preset; -map wins over both)")
	size := fs.Int("size", 20, "with -family: number of POP routers")
	mapFile := fs.String("map", "", "load topology from a Rocketfuel-style map instead of generating (overrides -preset and -family)")
	seed := fs.Int64("seed", 0, "generation seed (topology, traffic, randomized solvers)")
	k := fs.Float64("k", 1.0, "fraction of traffic to monitor, in (0,1]")
	method := fs.String("method", "ilp", `solver name, with or without the "tap/" prefix (-solvers lists all)`)
	budget := fs.Int("budget", 0, "with an ILP method: maximum number of devices (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the solve; on expiry the best incumbent is printed (0 = none)")
	list := fs.Bool("solvers", false, "list registered solvers and exit")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(out, "passiveplace")
		return nil
	}
	if *list {
		for _, name := range repro.Solvers() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	var pop *topology.POP
	var demands []traffic.Demand
	switch {
	case *mapFile != "":
		f, err := os.Open(*mapFile)
		if err != nil {
			return err
		}
		defer f.Close()
		pop, err = topology.Read(f)
		if err != nil {
			return err
		}
	case *family != "":
		s, err := scenario.Generate(*family, *size, *seed)
		if err != nil {
			return err
		}
		pop, demands = s.POP, s.Demands
	default:
		cfg, err := topology.Preset(*preset)
		if err != nil {
			return err
		}
		cfg.Seed = *seed
		pop = topology.Generate(cfg)
	}

	if demands == nil {
		demands = traffic.Demands(pop, traffic.Config{Seed: *seed})
	}
	in, err := traffic.Route(pop, demands)
	if err != nil {
		return err
	}

	opts := []repro.Option{
		repro.WithCoverage(*k),
		repro.WithBudget(*budget),
		repro.WithSeed(*seed),
	}
	if *timeout > 0 {
		opts = append(opts, repro.WithTimeout(*timeout))
	}
	res, err := repro.Solve(context.Background(), solverName(*method), in, opts...)
	if err != nil {
		return err
	}
	pl := res.Taps

	fmt.Fprintf(out, "# PPM(k=%.2f) on %d routers / %d links / %d traffics (method %s)\n",
		*k, pop.Routers(), pop.G.NumEdges(), len(in.Traffics), pl.Method)
	fmt.Fprintf(out, "devices: %d  coverage: %.2f%%  provably-optimal: %v\n",
		pl.Devices(), pl.Fraction*100, res.Optimal)
	fmt.Fprintf(out, "solver: %s  wall: %v  nodes: %d  pivots: %d\n",
		res.Solver, res.Stats.Wall.Round(time.Millisecond), res.Stats.Nodes, res.Stats.Pivots)
	loads := in.EdgeLoads()
	fmt.Fprintf(out, "%-6s %-14s %-14s %12s\n", "link", "from", "to", "load")
	for _, e := range pl.Edges {
		edge := in.G.Edge(e)
		fmt.Fprintf(out, "%-6d %-14s %-14s %12.1f\n",
			e, in.G.Label(edge.U), in.G.Label(edge.V), loads[e])
	}
	return nil
}

// solverName resolves CLI shorthand: names without a family prefix get
// "tap/" prepended, and the historical "flow" spelling maps to the
// flow-heuristic solver.
func solverName(name string) string {
	if name == "flow" {
		name = "flow-heuristic"
	}
	if !strings.Contains(name, "/") {
		name = "tap/" + name
	}
	return name
}
