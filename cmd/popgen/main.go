// Command popgen generates POP topologies (§2's two-level architecture,
// or any registered scenario family) and writes them as a
// Rocketfuel-style map or Graphviz DOT, optionally weighting edges by
// generated traffic load as in the paper's Figure 6.
//
// Usage:
//
//	popgen -preset paper10 -format map
//	popgen -routers 20 -links 36 -endpoints 14 -seed 3 -format dot -loads
//	popgen -family waxman -size 40 -seed 7
//	popgen -families
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "popgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("popgen", flag.ContinueOnError)
	preset := fs.String("preset", "", "paper10|paper15|paper29|paper80 (overrides size flags)")
	family := fs.String("family", "", "scenario family (-families lists all; overrides -preset and size flags)")
	size := fs.Int("size", 20, "with -family: number of POP routers")
	listFamilies := fs.Bool("families", false, "list registered scenario families and exit")
	routers := fs.Int("routers", 10, "number of POP routers")
	links := fs.Int("links", 15, "inter-router links")
	endpoints := fs.Int("endpoints", 12, "virtual traffic endpoints")
	seed := fs.Int64("seed", 0, "generation seed")
	format := fs.String("format", "map", "output format: map|dot")
	loads := fs.Bool("loads", false, "with -format dot: weight edges by traffic load (Figure 6 style)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(out, "popgen")
		return nil
	}
	if *listFamilies {
		for _, name := range scenario.Families() {
			f, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10s %s\n", name, f.Description)
		}
		return nil
	}

	var pop *topology.POP
	// demands are pre-drawn by scenario families; nil means draw the
	// §4.4 preferred-pair matrix on demand for -loads.
	var demands []traffic.Demand
	if *family != "" {
		s, err := scenario.Generate(*family, *size, *seed)
		if err != nil {
			return err
		}
		pop, demands = s.POP, s.Demands
	} else {
		cfg := topology.Config{Routers: *routers, InterRouterLinks: *links, Endpoints: *endpoints}
		if *preset != "" {
			var err error
			if cfg, err = topology.Preset(*preset); err != nil {
				return err
			}
		}
		cfg.Seed = *seed
		pop = topology.Generate(cfg)
	}

	switch *format {
	case "map":
		return topology.Write(out, pop)
	case "dot":
		opt := graph.DOTOptions{
			Name: "pop",
			NodeShape: func(n graph.NodeID) string {
				switch pop.Kind[n] {
				case topology.Backbone:
					return "box"
				case topology.Access:
					return "ellipse"
				default:
					return "point"
				}
			},
		}
		if *loads {
			if demands == nil {
				demands = traffic.Demands(pop, traffic.Config{Seed: *seed})
			}
			in, err := traffic.Route(pop, demands)
			if err != nil {
				return err
			}
			edgeLoads := in.EdgeLoads()
			maxLoad := 0.0
			for _, l := range edgeLoads {
				if l > maxLoad {
					maxLoad = l
				}
			}
			opt.EdgeWidth = func(e graph.Edge) float64 {
				if maxLoad == 0 {
					return 1
				}
				return 0.5 + 4*edgeLoads[e.ID]/maxLoad
			}
		}
		return pop.G.WriteDOT(out, opt)
	}
	return fmt.Errorf("unknown format %q", *format)
}
