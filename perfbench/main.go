// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output the program produced,
// and prints the workload's metrics:
//
//	figures  closed loop: passes of the paper's figure suite
//	churn    closed loop: warm repro.Session re-solves along drift chains
//	service  open loop: a placementd child process at fixed offered rates
//
// Build and run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//
// Every line but the last is a human-readable report (host stamp, every
// metric with its unit and the sample count behind each tail, per-layer
// self times). The last line is one JSON object with the keys correct,
// attempted, failed and metrics: the end_to_end metrics of
// BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
// A traced run also writes its spans under <out>/traces. The exit status
// is non-zero when any output check failed.
//
// NOTES.md records why each workload exists and which layers it loads.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workers is nproc: the engine workers, GOMAXPROCS and the
	// generator's connections never exceed it.
	workers    int
	placementd string
	digests    *digests
	tr         *tracer
}

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int
	// failures holds the first few failure descriptions; invalid marks
	// a run-level check (not tied to one operation) that failed.
	failures []string
	invalid  bool
	// metrics holds end-to-end and per-layer values by name.
	metrics map[string]float64
	// notes are report lines: sample counts, tails, self times.
	notes []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// fail counts one failed operation; call it at most once per operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.remember(format, args...)
}

// reject marks the whole run as failed by a check that spans
// operations (a hit-count mismatch, a lagging generator).
func (r *report) reject(format string, args ...any) {
	r.invalid = true
	r.remember(format, args...)
}

func (r *report) remember(format string, args ...any) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "figures | churn | service")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	placementd := fs.String("placementd", "", "placementd binary for the service workload")
	out := fs.String("out", ".bench_build", "directory for trace files")
	record := fs.String("record", "", "recompute the reference digests (figures at one worker, churn from cold solves) into this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	ctx := context.Background()
	if *record != "" {
		if err := recordDigests(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	bs, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dg, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workers: nproc, placementd: *placementd, digests: dg, tr: newTracer(),
	}
	host := hostStamp()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.Go, runtime.GOOS, runtime.GOARCH)

	var rep *report
	switch *workload {
	case "figures":
		rep, err = runFigures(ctx, cfg)
	case "churn":
		rep, err = runChurn(ctx, cfg)
	case "service":
		rep, err = runService(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want figures, churn or service)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.write(path, *workload, *seed, host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, line := range cfg.tr.selfTimeLines() {
			rep.notef("%s", line)
		}
		rep.notef("trace spans written to %s", path)
	}

	list := bs.EndToEnd
	if cfg.trace {
		list = bs.PerLayer
	}
	res := result{Correct: rep.failed == 0 && !rep.invalid, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		v, ok := rep.metrics[m.Name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure end-to-end metric %s\n", *workload, m.Name)
			return 1
		}
		// A per-layer metric the workload does not report belongs to a
		// layer it never reaches: its work there is zero.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-40s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bs, nil
}

// host identifies the machine a report was measured on: wall times are
// comparable only under one host stamp.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}
