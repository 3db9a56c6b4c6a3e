package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// The figures workload: a closed loop with one caller that repeats
// passes of the paper's eleven figures at one seed of averaging, each
// figure on a fresh engine with nproc workers, the way cmd/repro runs
// them. The seed orders the figures within each pass.

// figure is one entry of the suite: run writes the figure's text
// output, byte for byte what cmd/repro prints for it.
type figure struct {
	name string
	run  func(ctx context.Context, eng *engine.Runner, out io.Writer) error
}

// figureSeeds is the averaging depth (cmd/repro -seeds 1).
const figureSeeds = 1

func figureSuite() []figure {
	series := func(fn func(context.Context, *engine.Runner, int) *stats.Series) func(context.Context, *engine.Runner, io.Writer) error {
		return func(ctx context.Context, eng *engine.Runner, out io.Writer) error {
			return fn(ctx, eng, figureSeeds).Write(out)
		}
	}
	return []figure{
		{"fig6", func(_ context.Context, _ *engine.Runner, out io.Writer) error { return experiments.Fig6(1, out, nil) }},
		{"fig7", series(experiments.Fig7On)},
		{"fig8", series(experiments.Fig8On)},
		{"fig9", series(experiments.Fig9On)},
		{"fig10", series(experiments.Fig10On)},
		{"fig11", series(experiments.Fig11On)},
		{"ppme", series(experiments.PPMECostOn)},
		{"samplers", func(ctx context.Context, eng *engine.Runner, out io.Writer) error {
			return experiments.SamplerBiasOn(ctx, eng, 1).Write(out)
		}},
		{"large150", series(experiments.Large150On)},
		{"dynamic", writeDynamic},
		{"replay", writeReplay},
	}
}

// writeDynamic and writeReplay render the two table figures exactly as
// cmd/repro does.
func writeDynamic(ctx context.Context, eng *engine.Runner, out io.Writer) error {
	results, err := experiments.DynamicBatch(ctx, eng, figureSeeds, 10, 0.45)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# §5.4: dynamic traffic — PPME* rate adaptation under ±45% drift per round")
	fmt.Fprintf(out, "%-6s %-8s %-12s %-12s %-12s\n", "seed", "rounds", "recomputes", "min cover", "final cover")
	for seed, res := range results {
		fmt.Fprintf(out, "%-6d %-8d %-12d %11.2f%% %11.2f%%\n",
			seed, res.Rounds, res.Recomputes, res.MinCoverage*100, res.FinalCoverage*100)
	}
	return nil
}

func writeReplay(ctx context.Context, eng *engine.Runner, out io.Writer) error {
	outs, err := experiments.ReplayBatch(ctx, eng, figureSeeds, 0.9)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# validation: packet replay of PPME solutions (promised vs achieved coverage)")
	fmt.Fprintf(out, "%-6s %-6s %-12s %-12s\n", "seed", "k", "promised", "achieved")
	for _, o := range outs {
		fmt.Fprintf(out, "%-6d %-6.2f %11.2f%% %11.2f%%\n", o.Seed, 0.9, o.Promised*100, o.Achieved*100)
	}
	return nil
}

// passCounters are the engine effort counters of one pass, summed over
// its figures.
type passCounters struct {
	nodes, domPrunes, pivots, cuts, tasks int64
	hits, misses                          int64
}

func runFigures(ctx context.Context, cfg config) (*report, error) {
	suite := figureSuite()
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))

	// pass runs the suite once in a seeded order and checks each
	// figure's bytes against its reference digest.
	pass := func(idx int, tr *tracer) (time.Duration, map[string]time.Duration, passCounters) {
		var total time.Duration
		per := make(map[string]time.Duration, len(suite))
		var pc passCounters
		root := tr.start("figures.pass", -1, int64(idx))
		for _, i := range rng.Perm(len(suite)) {
			f := suite[i]
			eng := engine.New(engine.Options{Workers: cfg.workers, Cache: engine.NewCache()})
			var buf bytes.Buffer
			// Collect the previous figure's garbage outside the timed
			// call, so no figure pays for the one the seed ran before it.
			runtime.GC()
			id := tr.start("fig."+f.name, root, int64(idx))
			t0 := time.Now()
			err := f.run(ctx, eng, &buf)
			d := time.Since(t0)
			tr.end(id)
			total += d
			per[f.name] = d
			rep.attempted++
			switch {
			case err != nil:
				rep.fail("pass %d %s: %v", idx, f.name, err)
			case digest(buf.Bytes()) != cfg.digests.Figures[f.name]:
				rep.fail("pass %d %s: output digest %s, want %s", idx, f.name, digest(buf.Bytes()), cfg.digests.Figures[f.name])
			}
			st := eng.Stats()
			hits, misses := eng.Cache().Counts()
			pc.nodes += int64(st.Nodes)
			pc.domPrunes += int64(st.DominancePrunes)
			pc.pivots += int64(st.Pivots)
			pc.cuts += int64(st.CutsAdded)
			pc.tasks += eng.Tasks()
			pc.hits += hits
			pc.misses += misses
		}
		tr.end(root)
		return total, per, pc
	}

	// Set-up: one cold pass, before any code path or heap is warm. It
	// is checked like every other pass but not part of wall_s.
	setup, _, _ := pass(0, nil)

	var passes, traced, untraced []float64
	perFig := make(map[string][]float64)
	var counters []passCounters
	start := time.Now()
	for n := 1; n == 1 || time.Since(start) < cfg.seconds; n++ {
		// A traced run alternates traced and untraced passes: the
		// difference of their medians is the tracing overhead.
		on := cfg.trace && n%2 == 1
		d, per, pc := pass(n, cfg.tr.when(on))
		passes = append(passes, d.Seconds())
		if !cfg.trace {
			continue
		}
		if on {
			traced = append(traced, d.Seconds())
			for name, fd := range per {
				perFig[name] = append(perFig[name], ms(fd))
			}
			counters = append(counters, pc)
		} else {
			untraced = append(untraced, d.Seconds())
		}
	}
	elapsed := time.Since(start)

	wall := median(passes)
	m := rep.metrics
	m["setup_s"] = setup.Seconds()
	m["wall_s"] = wall
	m["peak_rss_mb"] = peakRSSMB()
	m["latency_p50_ms"] = wall * 1000
	rep.notef("figures setup_s %.4f s (first, cold pass)", setup.Seconds())
	rep.notef("figures wall_s %.4f s (median of %d passes; one pass = %d figures)", wall, len(passes), len(suite))
	rep.notef("figures per second %.4f over %.2f s", float64(len(passes)*len(suite))/elapsed.Seconds(), elapsed.Seconds())
	if cfg.trace {
		for _, f := range suite {
			m["fig."+f.name+"_ms"] = median(perFig[f.name])
		}
		med := func(get func(passCounters) float64) float64 {
			xs := make([]float64, len(counters))
			for i, c := range counters {
				xs[i] = get(c)
			}
			return median(xs)
		}
		m["cover.nodes"] = med(func(c passCounters) float64 { return float64(c.nodes) })
		m["cover.dominance_prunes"] = med(func(c passCounters) float64 { return float64(c.domPrunes) })
		m["lp.pivots"] = med(func(c passCounters) float64 { return float64(c.pivots) })
		m["mip.cuts"] = med(func(c passCounters) float64 { return float64(c.cuts) })
		m["engine.tasks"] = med(func(c passCounters) float64 { return float64(c.tasks) })
		m["engine.cache_hit_rate"] = med(func(c passCounters) float64 { return ratio(c.hits, c.hits+c.misses) })
		m["trace.overhead_ms"] = 1000 * (median(traced) - median(untraced))
		rep.notef("figures trace.overhead_ms %.3f ms (median traced pass of %d minus median untraced pass of %d)",
			m["trace.overhead_ms"], len(traced), len(untraced))
	}
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
