// Command beaconplace runs the active-monitoring pipeline of §6:
// computes a probe set covering every link from a candidate beacon set,
// then places beacons with the algorithm of [15] (thiran), the paper's
// greedy, or the exact ILP, and prints beacons with their probe loads.
// -timeout bounds each solve; an expired ILP prints its incumbent.
//
// Usage:
//
//	beaconplace -preset paper15 -seed 1 -candidates 10 -method ilp
//	beaconplace -preset paper29 -candidates 29 -method all
//	beaconplace -preset paper80 -method ilp -timeout 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/active"
	"repro/internal/buildinfo"
	"repro/internal/graph"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "beaconplace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("beaconplace", flag.ContinueOnError)
	preset := fs.String("preset", "paper15", "paper10|paper15|paper29|paper80")
	seed := fs.Int64("seed", 0, "generation seed")
	nCand := fs.Int("candidates", 0, "size of the candidate set V_B (0 = all routers)")
	method := fs.String("method", "all", "thiran|greedy|ilp|all, or any beacon/* registry name")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per solve (0 = none)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(out, "beaconplace")
		return nil
	}

	cfg, err := topology.Preset(*preset)
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	pop := topology.Generate(cfg)

	routers := append(append([]graph.NodeID(nil), pop.Backbone...), pop.Access...)
	cands := routers
	if *nCand > 0 && *nCand < len(routers) {
		rng := rand.New(rand.NewSource(*seed))
		perm := rng.Perm(len(routers))
		cands = make([]graph.NodeID, *nCand)
		for i := range cands {
			cands[i] = routers[perm[i]]
		}
	}

	ps, err := active.ComputeProbes(pop.G, cands)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# active monitoring on %d routers / %d links; |V_B| = %d, |Φ| = %d probes\n",
		pop.Routers(), pop.G.NumEdges(), len(cands), len(ps.Probes))

	var names []string
	switch *method {
	case "all":
		names = []string{"beacon/thiran", "beacon/greedy", "beacon/ilp"}
	default:
		name := *method
		if !strings.Contains(name, "/") {
			name = "beacon/" + name
		}
		names = []string{name}
	}

	var opts []repro.Option
	if *timeout > 0 {
		opts = append(opts, repro.WithTimeout(*timeout))
	}
	for _, name := range names {
		res, err := repro.Solve(context.Background(), name, ps, opts...)
		if err != nil {
			return err
		}
		pl := res.Beacons
		if err := pl.Validate(ps); err != nil {
			return fmt.Errorf("%s: invalid placement: %w", name, err)
		}
		load := active.ProbeLoad(*pl)
		fmt.Fprintf(out, "\n%s: %d beacons (optimal: %v, wall %v, nodes %d)\n",
			strings.TrimPrefix(name, "beacon/"), pl.Devices(), res.Optimal,
			res.Stats.Wall.Round(time.Millisecond), res.Stats.Nodes)
		fmt.Fprintf(out, "%-8s %-14s %8s\n", "node", "label", "probes")
		for _, b := range pl.Beacons {
			fmt.Fprintf(out, "%-8d %-14s %8d\n", b, pop.G.Label(b), load[b])
		}
	}
	return nil
}
