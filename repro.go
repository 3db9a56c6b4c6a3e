// Package repro is a from-scratch Go implementation of
//
//	Chaudet, Fleury, Guérin Lassous, Rivano, Voge —
//	"Optimal Positioning of Active and Passive Monitoring Devices",
//	CoNEXT 2005.
//
// It covers the complete system of the paper: the Partial Passive
// Monitoring problem PPM(k) with greedy, flow-based and exact MIP
// solvers (§4), sampling-capable devices with the PPME(h,k) MILP, the
// polynomial PPME* rate re-optimization and the dynamic-traffic
// controller (§5), active monitoring with probe computation and beacon
// placement (§6), plus all substrates: POP topology and traffic
// generation, a simplex LP solver, branch-and-bound MIP, min-cost flow,
// set-cover algorithms and a packet-level validation simulator.
//
// This package is the public facade: it re-exports the domain types and
// exposes every algorithm through the context-aware Solver/Result core
// (see solver.go): solvers are looked up by name in a registry, solves
// are bounded by context deadlines and report statistics, and a
// Portfolio races several solvers concurrently. The examples/
// directory shows complete programs; DESIGN.md maps every paper section
// and figure to the implementing module.
package repro

import (
	"context"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/passive"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Aliases re-exporting the domain model, so the facade is the only
// import applications need.
type (
	// Graph is the POP graph G = (V, E) of §4.1.
	Graph = graph.Graph
	// NodeID and EdgeID identify routers and links.
	NodeID = graph.NodeID
	EdgeID = graph.EdgeID
	// Path is a routed path through the POP.
	Path = graph.Path

	// POP is a generated point of presence (backbone routers, access
	// routers, virtual traffic endpoints — §2, Figure 2).
	POP = topology.POP
	// POPConfig parameterizes POP generation.
	POPConfig = topology.Config

	// Demand is an un-routed traffic request; Traffic and MultiTraffic
	// are its single- and multi-routed forms.
	Demand       = traffic.Demand
	Traffic      = core.Traffic
	MultiTraffic = core.MultiTraffic
	// TrafficConfig parameterizes demand generation (§4.4: non-uniform
	// volumes with preferred pairs).
	TrafficConfig = traffic.Config

	// Instance is a single-routed PPM(k) instance; MultiInstance the
	// multi-routed §5 variant.
	Instance      = core.Instance
	MultiInstance = core.MultiInstance

	// TapPlacement is a passive-monitoring solution (§4).
	TapPlacement = passive.Placement
	// ILPOptions configures the exact MIP solver (formulation choice,
	// incremental placement, device budget).
	ILPOptions = passive.ILPOptions

	// SamplingConfig and SamplingSolution are the §5 PPME types;
	// RateController implements the §5.4 adaptation loop; CostModel
	// carries costi/coste.
	SamplingConfig   = sampling.Config
	SamplingSolution = sampling.Solution
	RateController   = sampling.Controller
	CostModel        = sampling.CostModel

	// Sampler and Packet are the §5.2 sampling techniques' interface.
	Sampler = sampling.Sampler
	Packet  = sampling.Packet

	// ProbeSet and BeaconPlacement are the §6 active-monitoring types.
	ProbeSet        = active.ProbeSet
	Probe           = active.Probe
	BeaconPlacement = active.Placement

	// ReplayOptions and ReplayResult drive the packet-level validation
	// simulator.
	ReplayOptions = simulate.Options
	ReplayResult  = simulate.Result
)

// Paper-instance presets (router/link/traffic counts matching §4.4 and
// §6.2).
var (
	Paper10 = topology.Paper10
	Paper15 = topology.Paper15
	Paper29 = topology.Paper29
	Paper80 = topology.Paper80
)

// GeneratePOP builds a two-level POP topology (§2).
func GeneratePOP(cfg POPConfig) *POP { return topology.Generate(cfg) }

// GenerateDemands draws one demand per ordered endpoint pair with
// non-uniform volumes (§4.4).
func GenerateDemands(pop *POP, cfg TrafficConfig) []Demand { return traffic.Demands(pop, cfg) }

// RouteSingle routes demands on shortest paths into a PPM instance.
func RouteSingle(pop *POP, demands []Demand) (*Instance, error) { return traffic.Route(pop, demands) }

// RouteMulti routes demands over up to maxRoutes load-balanced shortest
// routes into a §5 multi-routed instance.
func RouteMulti(pop *POP, demands []Demand, maxRoutes int) (*MultiInstance, error) {
	return traffic.RouteMulti(pop, demands, maxRoutes)
}

// PlaceTapsILP exposes the full MIP options: formulation choice,
// incremental placement over installed devices, and device budgets
// (§4.3).
func PlaceTapsILP(ctx context.Context, in *Instance, k float64, opts ILPOptions) (TapPlacement, error) {
	return passive.SolveILP(ctx, in, k, opts)
}

// MaxCoverage places at most budget devices (plus installed ones) to
// maximize monitored volume — the paper's expected-gain question.
func MaxCoverage(ctx context.Context, in *Instance, budget int, installed []EdgeID) (TapPlacement, error) {
	return passive.MaxCoverage(ctx, in, budget, installed)
}

// PlaceSamplers solves PPME(h,k) (Linear program 3): device placement
// plus sampling ratios minimizing setup + exploitation cost (§5.3).
func PlaceSamplers(ctx context.Context, in *MultiInstance, cfg SamplingConfig) (*SamplingSolution, error) {
	return sampling.Solve(ctx, in, cfg)
}

// ReoptimizeRates solves PPME*(x,h,k): placement frozen, rates
// re-optimized in polynomial time (§5.4).
func ReoptimizeRates(ctx context.Context, in *MultiInstance, installed []EdgeID, cfg SamplingConfig) (*SamplingSolution, error) {
	return sampling.SolveRates(ctx, in, installed, cfg)
}

// NewRateController builds the §5.4 threshold controller (wait below
// threshold T, recompute PPME* on crossing).
func NewRateController(ctx context.Context, in *MultiInstance, installed []EdgeID, cfg SamplingConfig, threshold float64) (*RateController, error) {
	return sampling.NewController(ctx, in, installed, cfg, threshold)
}

// Samplers (§5.2). N is the sampling period (rate 1/N).
func NewTimeBasedSampler(interval float64) Sampler { return sampling.NewTimeBased(interval) }

// NewRegularSampler samples exactly one frame in every N.
func NewRegularSampler(n int) Sampler { return sampling.NewRegular(n) }

// NewProbabilisticSampler samples each frame with probability 1/N.
func NewProbabilisticSampler(n int, seed int64) Sampler { return sampling.NewProbabilistic(n, seed) }

// NewGeometricSampler samples one frame every X, X geometric with mean N.
func NewGeometricSampler(n int, seed int64) Sampler { return sampling.NewGeometric(n, seed) }

// ComputeProbes builds the probe set Φ covering every link from the
// candidate beacons V_B (first phase of [15], §6.1).
func ComputeProbes(g *Graph, candidates []NodeID) (ProbeSet, error) {
	return active.ComputeProbes(g, candidates)
}

// Replay validates a deployment at packet level: synthetic packets flow
// along every route, devices sample at their assigned rates, and the
// achieved coverage is measured.
func Replay(in *MultiInstance, rates map[EdgeID]float64, opt ReplayOptions) (ReplayResult, error) {
	return simulate.Run(in, rates, opt)
}

// PlaceTapsRounding runs the §4.3 randomized-rounding heuristic: round
// the LP-relaxation of Linear program 2 with boosted probabilities until
// the coverage target holds, then prune.
func PlaceTapsRounding(ctx context.Context, in *Instance, k float64, seed int64) (TapPlacement, error) {
	return passive.RandomizedRounding(ctx, in, k, seed)
}

// ReoptimizeRatesFlow is the §5.4 min-cost-flow formulation of PPME*
// (no LP involved); it does not support per-traffic floors.
func ReoptimizeRatesFlow(in *MultiInstance, installed []EdgeID, cfg SamplingConfig) (*SamplingSolution, error) {
	return sampling.SolveRatesFlow(in, installed, cfg)
}

// BalanceBeaconLoad redistributes probe sending among the placed
// beacons to minimize the maximum per-beacon message count (§6's
// generated-messages objective).
func BalanceBeaconLoad(ps ProbeSet, pl BeaconPlacement) (BeaconPlacement, error) {
	return active.BalanceSenders(ps, pl)
}

// RoutingCampaign implements the §7 measurement-campaign outlook: with
// devices and rates fixed, steer every traffic onto its best-monitored
// candidate route. It returns the re-routed instance and the coverage
// before and after.
func RoutingCampaign(in *MultiInstance, rates map[EdgeID]float64) (*MultiInstance, float64, float64) {
	before, _ := sampling.CampaignGain(in, rates)
	out, after := sampling.Campaign(in, rates)
	return out, before, after
}

// PromisedCoverage is the analytic coverage Σ min(1, Σ_{e∈p} r_e)·v_p/V
// that Replay's marked discipline should reproduce.
func PromisedCoverage(in *MultiInstance, rates map[EdgeID]float64) float64 {
	return simulate.PromisedFraction(in, rates)
}
