package repro

import (
	"context"
	"math"
	"testing"
)

// TestFacadeEndToEnd drives the whole pipeline through the public API:
// generate a POP, route traffic, place taps all five ways, place
// sampling devices, re-optimize rates, place beacons all three ways,
// and validate by packet replay.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := POPConfig{Routers: 6, InterRouterLinks: 10, Endpoints: 6, Seed: 7}
	pop := GeneratePOP(cfg)
	demands := GenerateDemands(pop, TrafficConfig{Seed: 7})
	in, err := RouteSingle(pop, demands)
	if err != nil {
		t.Fatal(err)
	}

	var optimal int
	for _, name := range []string{"tap/greedy-load", "tap/greedy-gain", "tap/flow-heuristic", "tap/ilp", "tap/exact"} {
		res, err := Solve(context.Background(), name, in, WithCoverage(0.9))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pl := res.Taps
		if pl.Fraction < 0.9-1e-9 {
			t.Fatalf("%s: coverage %g < 0.9", name, pl.Fraction)
		}
		if name == "tap/ilp" {
			optimal = pl.Devices()
		}
		if name == "tap/exact" && pl.Devices() != optimal {
			t.Fatalf("exact %d != ilp %d", pl.Devices(), optimal)
		}
	}

	mi, err := RouteMulti(pop, demands, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := PlaceSamplers(context.Background(), mi, SamplingConfig{K: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	re, err := ReoptimizeRates(context.Background(), mi, sol.Edges, SamplingConfig{K: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if re.Fraction < 0.85-1e-6 {
		t.Fatalf("re-optimized coverage %g", re.Fraction)
	}

	ctl, err := NewRateController(context.Background(), mi, sol.Edges, SamplingConfig{K: 0.85}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := ctl.Observe(context.Background(), mi); err != nil || rec {
		t.Fatalf("controller recomputed on unchanged traffic (err=%v)", err)
	}

	promise := PromisedCoverage(mi, re.Rates)
	res, err := Replay(mi, re.Rates, ReplayOptions{Seed: 7, PacketsPerUnit: 150})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fraction-promise) > 0.03 {
		t.Fatalf("replay %g vs promise %g", res.Fraction, promise)
	}

	var cands []NodeID
	for n := 0; n < pop.G.NumNodes(); n++ {
		if pop.IsRouter(NodeID(n)) {
			cands = append(cands, NodeID(n))
		}
	}
	ps, err := ComputeProbes(pop.G, cands)
	if err != nil {
		t.Fatal(err)
	}
	devices := map[string]int{}
	for _, name := range []string{"beacon/thiran", "beacon/greedy", "beacon/ilp"} {
		res, err := Solve(context.Background(), name, ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Beacons.Validate(ps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		devices[name] = res.Beacons.Devices()
	}
	if ilpN, grN := devices["beacon/ilp"], devices["beacon/greedy"]; ilpN > grN {
		t.Fatalf("ilp %d worse than greedy %d", ilpN, grN)
	}
}

func TestIncrementalAndBudgetThroughFacade(t *testing.T) {
	pop := GeneratePOP(POPConfig{Routers: 5, InterRouterLinks: 8, Endpoints: 5, Seed: 3})
	in, err := RouteSingle(pop, GenerateDemands(pop, TrafficConfig{Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), "tap/ilp", in, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	base := res.Taps
	inc, err := PlaceTapsILP(context.Background(), in, 0.9, ILPOptions{Installed: base.Edges[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Devices() < base.Devices() {
		t.Fatal("incremental beat the optimum")
	}
	mc, err := MaxCoverage(context.Background(), in, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Devices() > 2 {
		t.Fatalf("max-coverage used %d devices with budget 2", mc.Devices())
	}
}

func TestSamplerConstructors(t *testing.T) {
	for _, s := range []Sampler{
		NewTimeBasedSampler(0.5),
		NewRegularSampler(10),
		NewProbabilisticSampler(10, 1),
		NewGeometricSampler(10, 1),
	} {
		s.Sample(Packet{})
		s.Reset()
		if s.Name() == "" {
			t.Fatal("unnamed sampler")
		}
	}
}

func TestRoutingCampaignThroughFacade(t *testing.T) {
	pop := GeneratePOP(POPConfig{Routers: 6, InterRouterLinks: 10, Endpoints: 6, Seed: 11})
	mi, err := RouteMulti(pop, GenerateDemands(pop, TrafficConfig{Seed: 11}), 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := PlaceSamplers(context.Background(), mi, SamplingConfig{K: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rerouted, before, after := RoutingCampaign(mi, sol.Rates)
	if err := rerouted.Validate(); err != nil {
		t.Fatal(err)
	}
	if after < before-1e-9 {
		t.Fatalf("campaign lowered coverage %g -> %g", before, after)
	}
	if before < 0.8-1e-6 {
		t.Fatalf("solved coverage %g below k", before)
	}
}

func TestNewFacadeFunctions(t *testing.T) {
	pop := GeneratePOP(POPConfig{Routers: 6, InterRouterLinks: 10, Endpoints: 6, Seed: 13})
	demands := GenerateDemands(pop, TrafficConfig{Seed: 13})
	in, err := RouteSingle(pop, demands)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := PlaceTapsRounding(context.Background(), in, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Fraction < 0.9-1e-9 {
		t.Fatalf("rounding coverage %g", rr.Fraction)
	}
	mi, err := RouteMulti(pop, demands, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]EdgeID, mi.G.NumEdges())
	for e := range all {
		all[e] = EdgeID(e)
	}
	fl, err := ReoptimizeRatesFlow(mi, all, SamplingConfig{K: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Fraction < 0.85-1e-6 {
		t.Fatalf("flow rates coverage %g", fl.Fraction)
	}
	var cands []NodeID
	for n := 0; n < pop.G.NumNodes(); n++ {
		if pop.IsRouter(NodeID(n)) {
			cands = append(cands, NodeID(n))
		}
	}
	ps, err := ComputeProbes(pop.G, cands)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), "beacon/greedy", ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BalanceBeaconLoad(ps, *res.Beacons); err != nil {
		t.Fatal(err)
	}
}
