package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/traffic"
)

// The churn workload: a closed loop with one caller per chain that
// walks pre-generated drift chains through warm repro.Session
// re-solves. One operation is RouteSingle of the next demand matrix
// plus Session.Resolve — what a caller pays per drift step. The chains
// are fixed (their cold-solve placements are recorded in digests.json);
// the seed orders the chains within each walk of the pool.

const (
	churnFamily = "churn"
	churnSize   = 20
	churnK      = 0.95
	// churnSteps is the number of drift steps per chain.
	churnSteps = 10
	// churnTrafficShare is the fraction of steps that add and drop
	// demand rows (the session ships only its hint); the rest rescale
	// volumes on the same rows (hint plus saved LP basis).
	churnTrafficShare = 0.3
)

// churnChainSeeds are the scenario seeds of the chain pool.
var churnChainSeeds = []int64{1, 2, 3, 4, 5, 6}

// chain is one drift chain: demands[0] is the scenario's aggregated
// demand matrix, demands[j] the matrix after j churn steps.
type chain struct {
	seed    int64
	pop     *repro.POP
	demands [][]repro.Demand
}

func buildChain(seed int64) (*chain, error) {
	s, err := repro.GenerateScenario(churnFamily, churnSize, seed)
	if err != nil {
		return nil, err
	}
	ch := &chain{seed: seed, pop: s.POP}
	rng := rand.New(rand.NewSource(seed))
	dem := s.Demands
	ch.demands = append(ch.demands, traffic.Aggregate(dem))
	for j := 1; j <= churnSteps; j++ {
		// A rescale step keeps every row (drop and add fractions too
		// small to fire); a traffic step drops and adds a few.
		cc := traffic.ChurnConfig{Seed: seed*1000 + int64(j), Drop: 1e-12, Add: 1e-12, RescaleLow: 0.8, RescaleHigh: 1.25}
		if rng.Float64() < churnTrafficShare {
			cc.Drop, cc.Add = 0.05, 0.05
		}
		dem, _, err = traffic.ChurnWithDelta(s.POP, dem, cc)
		if err != nil {
			return nil, fmt.Errorf("chain %d step %d: %w", seed, j, err)
		}
		ch.demands = append(ch.demands, traffic.Aggregate(dem))
	}
	return ch, nil
}

// placementDigest hashes a tap placement's sorted edge list.
func placementDigest(edges []repro.EdgeID) string {
	var b strings.Builder
	for _, e := range edges {
		b.WriteString(strconv.Itoa(int(e)))
		b.WriteByte(',')
	}
	return digest([]byte(b.String()))
}

// coverage recomputes the monitored volume fraction of a tap placement
// from the instance itself.
func coverage(in *repro.Instance, edges []repro.EdgeID) float64 {
	tapped := make(map[repro.EdgeID]bool, len(edges))
	for _, e := range edges {
		tapped[e] = true
	}
	var covered, total float64
	for _, t := range in.Traffics {
		total += t.Volume
		for _, e := range t.Path.Edges {
			if tapped[e] {
				covered += t.Volume
				break
			}
		}
	}
	if total == 0 {
		return 1
	}
	return covered / total
}

// live is one chain with its session, positioned at demands[at].
type live struct {
	*chain
	want []string
	sess *repro.Session
	at   int
}

// churnStep is one measured operation: the step from matrix from to
// matrix to of chain.
type churnStep struct {
	chain, from, to int
	traced          bool
	class           repro.DeltaClass
	route, solve    time.Duration
	nodes, pivots   int
	warm            bool
}

func runChurn(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: generate every chain's demand matrices and open one
	// session per chain with a cold solve of its first matrix. It runs
	// three times; the median is setup_s and the last pool is used.
	var pool []*live
	var setups []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		p, err := openPool(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		pool = p
	}
	for _, l := range pool {
		rep.attempted++
		check(rep, l, 0, l.sess.Previous(), nil)
	}

	var steps []churnStep
	var walks []float64
	var req int64
	start := time.Now()
	// Walks alternate direction, so every session keeps moving along
	// its chain: forward to the last matrix, then back. The run ends on
	// a whole pair of walks, so every run repeats the same set of steps.
	for w := 0; w < 2 || w%2 == 1 || time.Since(start) < cfg.seconds; w++ {
		// A traced run traces pairs of walks alternately, so every step
		// is timed both traced and untraced.
		on := cfg.trace && (w/2)%2 == 0
		tr := cfg.tr.when(on)
		var walk time.Duration
		root := tr.start("churn.walk", -1, int64(w))
		for _, i := range rng.Perm(len(pool)) {
			l := pool[i]
			for n := 0; n < churnSteps; n++ {
				from, next := l.at, l.at+1
				if w%2 == 1 {
					next = l.at - 1
				}
				req++
				sid := tr.start("churn.step", root, req)
				rid := tr.start("traffic.route", sid, req)
				t0 := time.Now()
				in, err := repro.RouteSingle(l.pop, l.demands[next])
				t1 := time.Now()
				tr.end(rid)
				var res *repro.Result
				if err == nil {
					vid := tr.start("session.resolve", sid, req)
					res, err = l.sess.Resolve(ctx, in)
					tr.end(vid)
				}
				t2 := time.Now()
				tr.end(sid)
				rep.attempted++
				l.at = next
				if err != nil {
					rep.fail("chain %d step %d: %v", l.seed, next, err)
					continue
				}
				walk += t2.Sub(t0)
				steps = append(steps, churnStep{
					chain: i, from: from, to: next, traced: on,
					class: l.sess.LastDelta().Class, route: t1.Sub(t0), solve: t2.Sub(t1),
					nodes: res.Stats.Nodes, pivots: res.Stats.Pivots, warm: res.Stats.WarmStarts > 0,
				})
				check(rep, l, next, res, in)
			}
		}
		tr.end(root)
		walks = append(walks, walk.Seconds())
	}

	var lat, rescaleSolve, trafficSolve, route []float64
	var opTime time.Duration
	var nodes, pivots, warm float64
	for _, s := range steps {
		d := s.route + s.solve
		opTime += d
		lat = append(lat, ms(d))
		route = append(route, ms(s.route))
		switch s.class {
		case repro.DeltaRescale:
			rescaleSolve = append(rescaleSolve, ms(s.solve))
		case repro.DeltaTraffic:
			trafficSolve = append(trafficSolve, ms(s.solve))
		}
		nodes += float64(s.nodes)
		pivots += float64(s.pivots)
		if s.warm {
			warm++
		}
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("churn: no step succeeded")
	}
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walks)
	m["peak_rss_mb"] = peakRSSMB()
	m["latency_p50_ms"] = median(lat)
	m["churn.resolves_per_s"] = float64(len(steps)) / opTime.Seconds()
	rep.notef("churn setup_s %.4f s (median of %d pool builds: %d chains, %d matrices each, one cold solve per chain)",
		m["setup_s"], len(setups), len(pool), churnSteps+1)
	rep.notef("churn wall_s %.4f s (median of %d walks, %d steps each)", m["wall_s"], len(walks), len(pool)*churnSteps)
	rep.notef("churn latency_p50_ms %.4f ms over %d steps (%d rescale, %d traffic)", m["latency_p50_ms"], len(lat), len(rescaleSolve), len(trafficSolve))
	if t, ok := tail(lat); ok {
		m["churn.latency_tail_ms"] = t.Value
		rep.notef("churn latency_tail_ms %.4f ms (%s)", t.Value, t)
	}
	rep.notef("churn resolves_per_s %.4f (steps over the time spent in them)", m["churn.resolves_per_s"])
	if cfg.trace {
		m["traffic.route_ms"] = median(route)
		m["session.resolve.rescale_ms"] = median(rescaleSolve)
		m["session.resolve.traffic_ms"] = median(trafficSolve)
		m["session.cover.nodes"] = nodes / float64(len(steps))
		m["session.lp.pivots"] = pivots / float64(len(steps))
		m["session.warm_frac"] = warm / float64(rep.attempted-len(pool))
		perStep, pairs := pairedOverhead(steps)
		m["trace.overhead_ms"] = perStep * float64(len(pool)*churnSteps)
		rep.notef("churn trace.overhead_ms %.3f ms per walk (median traced-minus-untraced latency of the same step over %d steps, times %d steps)",
			m["trace.overhead_ms"], pairs, len(pool)*churnSteps)
	}
	return rep, nil
}

// pairedOverhead compares every step timed both traced and untraced
// and returns the median difference in ms with the number of steps
// compared.
func pairedOverhead(steps []churnStep) (float64, int) {
	type key struct{ chain, from, to int }
	on, off := make(map[key][]float64), make(map[key][]float64)
	for _, s := range steps {
		k := key{s.chain, s.from, s.to}
		if s.traced {
			on[k] = append(on[k], ms(s.route+s.solve))
		} else {
			off[k] = append(off[k], ms(s.route+s.solve))
		}
	}
	var diffs []float64
	for k, xs := range on {
		if ys, ok := off[k]; ok {
			diffs = append(diffs, median(xs)-median(ys))
		}
	}
	return median(diffs), len(diffs)
}

// openPool builds every chain and primes its session cold.
func openPool(ctx context.Context, cfg config) ([]*live, error) {
	var pool []*live
	for i, seed := range churnChainSeeds {
		ch, err := buildChain(seed)
		if err != nil {
			return nil, err
		}
		sess, err := repro.NewSession(repro.SolverTapExact, repro.WithCoverage(churnK))
		if err != nil {
			return nil, err
		}
		in, err := repro.RouteSingle(ch.pop, ch.demands[0])
		if err != nil {
			return nil, err
		}
		if _, err := sess.Solve(ctx, in); err != nil {
			return nil, fmt.Errorf("chain %d cold solve: %w", seed, err)
		}
		pool = append(pool, &live{chain: ch, want: cfg.digests.Churn.Chains[i].Steps, sess: sess})
	}
	return pool, nil
}

// check verifies one step's answer: provably optimal, coverage ≥ k
// recomputed from the instance, and the placement a cold solve of the
// same matrix recorded. in is nil for the priming solve, whose instance
// is routed again here.
func check(rep *report, l *live, j int, res *repro.Result, in *repro.Instance) {
	if in == nil {
		var err error
		if in, err = repro.RouteSingle(l.pop, l.demands[j]); err != nil {
			rep.fail("chain %d step %d: %v", l.seed, j, err)
			return
		}
	}
	switch {
	case res == nil || res.Taps == nil:
		rep.fail("chain %d step %d: no tap placement", l.seed, j)
	case !res.Optimal:
		rep.fail("chain %d step %d: not proven optimal", l.seed, j)
	case coverage(in, res.Taps.Edges) < churnK-1e-9:
		rep.fail("chain %d step %d: coverage %.6f below k=%.2f", l.seed, j, coverage(in, res.Taps.Edges), churnK)
	case placementDigest(res.Taps.Edges) != l.want[j]:
		rep.fail("chain %d step %d: placement digest %s, cold solve recorded %s", l.seed, j, placementDigest(res.Taps.Edges), l.want[j])
	}
}
