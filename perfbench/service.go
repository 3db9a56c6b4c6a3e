package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/active"
	"repro/internal/scenario"
	"repro/internal/service"
)

// The service workload: a placementd child process on loopback, driven
// by an open-loop generator in this process over at most nproc
// keep-alive connections. Requests follow a seeded Poisson schedule at
// two frozen offered rates (low, high), then a capacity search walks a
// fixed ladder of rates. Every distinct problem is requested exactly
// twice, so half the requests miss the daemon's memo cache and half
// hit it.

const (
	// lowRate and highRate are the offered rates in requests per
	// second, picked once at about 1/4 and 2/3 of the capacity measured
	// on the reference host (2-vCPU Intel Xeon, about 290 req/s) and
	// frozen: re-picking them per run would hide a speed-up.
	lowRate  = 75.0
	highRate = 195.0
	// latencyLimitMS is the capacity search's limit on the tail
	// latency. Below saturation the tail of this mix stays within
	// 15-80 ms; past it the backlog drives it over 200 ms within a
	// second, so the limit finds the knee, not the noise below it.
	latencyLimitMS = 100.0
	// serviceCoverage is the k of every tap request. At 0.9 exact
	// solves of these sizes take 1-5 ms; at 0.95 a few take 0.3 s and
	// would make the tail measure a handful of problems.
	serviceCoverage = 0.9
	// repeatLag is how many first requests separate a problem's first
	// request from its repeat, so the repeat finds the result stored.
	repeatLag = 16
	// idleRequests is the size of the unloaded phase: one connection,
	// each request sent when the previous one is answered.
	idleRequests = 600
	// maxLateShare rejects a phase whose generator ran late by more
	// than this share of the phase's tail latency (both as tails): its
	// latencies measured the generator, not the daemon.
	maxLateShare = 0.25
)

// capacityLadder is the capacity search: the offered rates of its
// rungs, played in order until two rungs in a row miss the limit (see
// capacity).
var capacityLadder = []float64{220, 240, 260, 280, 300, 320, 340, 365, 390, 420}

var (
	serviceSolvers  = []string{repro.SolverTapExact, repro.SolverTapGreedyGain, repro.SolverBeaconILP, repro.SolverBeaconGreedy}
	serviceFamilies = []string{"waxman", "barabasi", "metro"}
	// serviceMix is one block of the request mix, each solver with
	// every family: tap requests twice as often as beacon requests.
	// Beacon requests cost 5-18 ms (probe construction on every
	// request), tap requests 2-5 ms; at equal shares the median would
	// fall in the gap between the two classes and swing with the run's
	// slowest tap and fastest beacon request.
	serviceMix = []string{
		repro.SolverTapExact, repro.SolverTapGreedyGain, repro.SolverTapExact, repro.SolverTapGreedyGain,
		repro.SolverBeaconILP, repro.SolverBeaconGreedy,
	}
)

// problem is one distinct request: solver plus scenario triple.
type problem struct {
	Solver, Family string
	Size           int
	Seed           int64
}

func (p problem) body() ([]byte, error) {
	req := service.SolveRequest{Solver: p.Solver,
		ProblemSpec: service.ProblemSpec{Family: p.Family, Size: p.Size, Seed: p.Seed}}
	if strings.HasPrefix(p.Solver, "tap/") {
		req.Coverage = serviceCoverage
	}
	return json.Marshal(req)
}

// problemSource draws distinct problems. Every block of eighteen holds
// each serviceMix × family pair once, in a seeded order, so every
// stretch of load has the same mix; the size is drawn from 30-40 and the
// scenario seed is a counter offset by the workload seed, so no two
// problems of a run coincide.
type problemSource struct {
	rng   *rand.Rand
	base  int64
	n     int64
	block []int
}

func (s *problemSource) next() problem {
	if len(s.block) == 0 {
		s.block = s.rng.Perm(len(serviceMix) * len(serviceFamilies))
	}
	k := s.block[0]
	s.block = s.block[1:]
	s.n++
	return problem{
		Solver: serviceMix[k/len(serviceFamilies)],
		Family: serviceFamilies[k%len(serviceFamilies)],
		Size:   30 + s.rng.Intn(11),
		Seed:   s.base + s.n,
	}
}

// phase is one stretch of open-loop load at a fixed offered rate.
type phase struct {
	name  string
	rate  float64
	probs []problem
	reqs  []request
}

// request is one scheduled send: which problem, whether it is the
// problem's first request, and its due time from the phase start.
type request struct {
	prob  int
	first bool
	due   time.Duration
	body  []byte
}

// newPhase schedules 2n requests for n fresh problems: Poisson arrivals
// at rate, each problem's repeat repeatLag first-requests after its
// first.
func newPhase(name string, rate float64, n int, src *problemSource, rng *rand.Rand) (*phase, error) {
	ph := &phase{name: name, rate: rate}
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := src.next()
		b, err := p.body()
		if err != nil {
			return nil, err
		}
		ph.probs = append(ph.probs, p)
		bodies[i] = b
	}
	for i := 0; i < n+repeatLag; i++ {
		if i < n {
			ph.reqs = append(ph.reqs, request{prob: i, first: true, body: bodies[i]})
		}
		if j := i - repeatLag; j >= 0 && j < n {
			ph.reqs = append(ph.reqs, request{prob: j, body: bodies[j]})
		}
	}
	var t float64
	for i := range ph.reqs {
		ph.reqs[i].due = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return ph, nil
}

// outcome is what happened to one request. Latency counts from due,
// so time spent waiting for a free connection is part of it.
type outcome struct {
	due, pushed, sent, done time.Time
	status                  int
	body                    []byte
	err                     error
	result                  *repro.Result
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && o.result != nil }

func (o *outcome) latencyMS() float64 {
	if o.err != nil || o.status != http.StatusOK {
		// A failed request misses every latency limit.
		return math.Inf(1)
	}
	return ms(o.done.Sub(o.due))
}

// generator sends requests to one daemon over at most conns keep-alive
// connections.
type generator struct {
	url    string
	conns  int
	client *http.Client
}

func newGenerator(url string, conns int) *generator {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &generator{url: url, conns: conns, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (g *generator) post(body []byte) (int, []byte, error) {
	resp, err := g.client.Post(g.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run plays a stretch of schedule, due times taken relative to the
// first request's. One dispatcher goroutine (this one) sleeps until
// each request is due and queues it; conns workers send queued
// requests as connections free up. traced selects the requests whose
// spans are recorded; reqBase numbers them.
func (g *generator) run(reqs []request, tr *tracer, traced func(id int64) bool, reqBase int64) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // one slot per send: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Now()
				req := reqBase + int64(i)
				t := tr.when(traced(req))
				rid := t.add("service.request", -1, req, o.due, o.sent)
				t.add("gen.wait", rid, req, o.due, o.sent)
				hid := t.start("service.http", rid, req)
				o.status, o.body, o.err = g.post(reqs[i].body)
				t.end(hid)
				t.end(rid)
				o.done = time.Now()
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, r := range reqs {
		due := start.Add(r.due - reqs[0].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].due = due
		out[i].pushed = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// warm sends each body once, closed loop over the generator's
// connections, and fails on any non-200.
func (g *generator) warm(bodies [][]byte) error {
	errs := make(chan error, len(bodies)) // one slot per body
	queue := make(chan []byte, len(bodies))
	for _, b := range bodies {
		queue <- b
	}
	close(queue)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range queue {
				status, body, err := g.post(b)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up request: status %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// scrape reads the daemon's unlabelled /metrics samples.
func (g *generator) scrape() (map[string]float64, error) {
	resp, err := g.client.Get(g.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// daemon is a placementd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *addrWatcher
	once   sync.Once
	peak   float64
}

// addrWatcher collects the daemon's stderr and reports the address of
// its "listening on" line.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	const prefix = "placementd: listening on "
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, prefix); i >= 0 {
			if addr, _, ok := strings.Cut(s[i+len(prefix):], "\n"); ok {
				w.addr <- addr
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func startDaemon(bin string, workers int) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("service workload needs --placementd")
	}
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start placementd: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: w}
	select {
	case addr := <-w.addr:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("placementd did not report its address: %s", w)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("placementd never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its peak resident set in MiB. Only
// the first call acts.
func (d *daemon) stop() float64 {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = d.cmd.Wait() // exit status after SIGTERM carries nothing the benchmark uses
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.peak = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	})
	return d.peak
}

// peakRSSOf reads a running process's peak resident set (VmHWM) in
// MiB from /proc; ok is false where /proc is unavailable.
func peakRSSOf(pid int) (mb float64, ok bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// warmProblems is how many problems of each solver and family the
// set-up sends (each twice), on scenario seeds no measured request
// uses: enough that set-up time is not one process start's jitter.
const warmProblems = 4

func warmBodies() ([][]byte, error) {
	var out [][]byte
	seed := int64(-1)
	for _, s := range serviceSolvers {
		for _, f := range serviceFamilies {
			for k := 0; k < warmProblems; k++ {
				b, err := problem{Solver: s, Family: f, Size: 30 + 3*k, Seed: seed}.body()
				if err != nil {
					return nil, err
				}
				seed--
				out = append(out, b, b)
			}
		}
	}
	return out, nil
}

// phaseResult is one phase as played, with its /metrics deltas.
type phaseResult struct {
	*phase
	// id0 numbers the phase's first request; request ids are unique
	// across the run.
	id0                int64
	out                []outcome
	hits, misses, shed float64
	// wall is the time from each segment's first due instant to its
	// last response, summed over the segments.
	wall        time.Duration
	tailOK      bool
	tail        tailStat
	lateTail    float64
	lastLatency float64
}

// play sends requests [from, to) of the phase as one segment.
func (pr *phaseResult) play(gen *generator, tr *tracer, traced func(int64) bool, from, to int) error {
	before, err := gen.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	seg := gen.run(pr.reqs[from:to], tr, traced, pr.id0+int64(from))
	after, err := gen.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	copy(pr.out[from:to], seg)
	pr.hits += after["placementd_cache_hits_total"] - before["placementd_cache_hits_total"]
	pr.misses += after["placementd_cache_misses_total"] - before["placementd_cache_misses_total"]
	pr.shed += after["placementd_requests_shed_total"] - before["placementd_requests_shed_total"]
	end := seg[0].done
	for _, o := range seg {
		if o.done.After(end) {
			end = o.done
		}
	}
	pr.wall += end.Sub(seg[0].due)
	return nil
}

// playClosed sends the phase's requests one at a time over one
// connection, each when the previous one is answered: its latency is
// the round trip alone.
func (pr *phaseResult) playClosed(gen *generator) error {
	before, err := gen.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	start := time.Now()
	for i, r := range pr.reqs {
		o := &pr.out[i]
		o.due = time.Now()
		o.pushed, o.sent = o.due, o.due
		o.status, o.body, o.err = gen.post(r.body)
		o.done = time.Now()
	}
	pr.wall = time.Since(start)
	after, err := gen.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	pr.hits = after["placementd_cache_hits_total"] - before["placementd_cache_hits_total"]
	pr.misses = after["placementd_cache_misses_total"] - before["placementd_cache_misses_total"]
	pr.shed = after["placementd_requests_shed_total"] - before["placementd_requests_shed_total"]
	pr.finish()
	return nil
}

// finish computes the phase's tails once every segment has played.
func (pr *phaseResult) finish() {
	var lat, late []float64
	for i := range pr.out {
		lat = append(lat, pr.out[i].latencyMS())
		late = append(late, ms(pr.out[i].pushed.Sub(pr.out[i].due)))
	}
	pr.tail, pr.tailOK = tail(lat)
	if lt, ok := tail(late); ok {
		pr.lateTail = lt.Value
	} else {
		pr.lateTail = sorted(late)[len(late)-1]
	}
	pr.lastLatency = lat[len(lat)-1]
}

// segmentLength is the stretch of schedule the low and high phases
// alternate in: a transient slowdown of the shared host then falls on
// both rates instead of on one whole phase.
const segmentLength = time.Second

// interleave plays the phases in alternating segments of
// segmentLength of schedule each.
func interleave(gen *generator, tr *tracer, traced func(int64) bool, phases ...*phaseResult) error {
	next := make([]int, len(phases))
	for k := 1; ; k++ {
		played := false
		for i, pr := range phases {
			from, to := next[i], next[i]
			for to < len(pr.reqs) && pr.reqs[to].due < time.Duration(k)*segmentLength {
				to++
			}
			if to == from {
				continue
			}
			if err := pr.play(gen, tr, traced, from, to); err != nil {
				return err
			}
			next[i], played = to, true
		}
		if !played {
			break
		}
	}
	for _, pr := range phases {
		pr.finish()
	}
	return nil
}

func runService(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	warm, err := warmBodies()
	if err != nil {
		return nil, err
	}

	// Set-up: start the daemon, wait until it is healthy and send the
	// warm-up requests. It runs three times (the first two daemons are
	// stopped); the median is setup_s and the last daemon is measured.
	var d *daemon
	var setups []float64
	for k := 0; k < 3; k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = startDaemon(cfg.placementd, cfg.workers); err != nil {
			return nil, err
		}
		if err := newGenerator(d.url, cfg.workers).warm(warm); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	gen := newGenerator(d.url, cfg.workers)

	rng := rand.New(rand.NewSource(cfg.seed))
	src := &problemSource{rng: rng, base: cfg.seed * 1_000_000}
	quarter := cfg.seconds / 4
	var ids int64
	newResult := func(name string, rate float64, dur time.Duration) (*phaseResult, error) {
		ph, err := newPhase(name, rate, max(1, int(rate*dur.Seconds()/2)), src, rng)
		if err != nil {
			return nil, err
		}
		pr := &phaseResult{phase: ph, id0: ids, out: make([]outcome, len(ph.reqs))}
		ids += int64(len(ph.reqs))
		return pr, nil
	}

	// In a traced run every other request id is traced: the difference
	// of the two halves' median latency is the tracing overhead.
	traced := func(id int64) bool { return cfg.trace && id%2 == 0 }

	// The unloaded phase: what one caller sees from an otherwise idle
	// daemon. With nothing queued its latency scales with the host's
	// speed alone, where the open-loop phases add queueing on top.
	idlePhase, err := newPhase("idle", 0, idleRequests/2, src, rng)
	if err != nil {
		return nil, err
	}
	idle := &phaseResult{phase: idlePhase, id0: ids, out: make([]outcome, len(idlePhase.reqs))}
	ids += int64(len(idlePhase.reqs))
	if err := idle.playClosed(gen); err != nil {
		return nil, err
	}
	low, err := newResult("low", lowRate, quarter)
	if err != nil {
		return nil, err
	}
	high, err := newResult("high", highRate, quarter)
	if err != nil {
		return nil, err
	}
	if err := interleave(gen, cfg.tr, traced, low, high); err != nil {
		return nil, err
	}
	measured := []*phaseResult{idle, low, high}
	// The daemon's peak memory is read after the fixed low and high
	// phases: the ladder's length depends on where the knee falls.
	peak, havePeak := peakRSSOf(d.cmd.Process.Pid)

	// Capacity search, untraced: climb the ladder until two rungs in a
	// row miss the limit.
	var rungs []*phaseResult
	rungDur := cfg.seconds / 2 / time.Duration(len(capacityLadder))
	for _, rate := range capacityLadder {
		pr, err := newResult(fmt.Sprintf("rung%.0f", rate), rate, rungDur)
		if err != nil {
			return nil, err
		}
		if err := pr.play(gen, nil, traced, 0, len(pr.reqs)); err != nil {
			return nil, err
		}
		pr.finish()
		rungs = append(rungs, pr)
		if n := len(rungs); n >= 2 && !rungs[n-1].holds() && !rungs[n-2].holds() {
			break
		}
	}
	measured = append(measured, rungs...)

	if exitPeak := d.stop(); !havePeak {
		peak = exitPeak
	}
	parseAndCheck(rep, measured, cfg.workers)
	for _, pr := range measured {
		if pr.tailOK && pr.lateTail > maxLateShare*pr.tail.Value {
			rep.reject("phase %s: generator ran %.2f ms late against a %.2f ms latency tail: it measured itself, not the daemon",
				pr.name, pr.lateTail, pr.tail.Value)
		}
	}

	m := rep.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = (low.wall + high.wall).Seconds()
	m["peak_rss_mb"] = peak
	rep.notef("service setup_s %.4f s (median of %d daemon starts, each to healthy plus %d warm-up requests)", m["setup_s"], len(setups), len(warm))
	rep.notef("service wall_s %.4f s (low and high phases in alternating %v segments, first due to last response of each)", m["wall_s"], segmentLength)
	for _, pr := range []*phaseResult{low, high} {
		lat := make([]float64, len(pr.out))
		for i := range pr.out {
			lat[i] = pr.out[i].latencyMS()
		}
		p50 := median(lat)
		m[pr.name+".latency_p50_ms"] = p50
		rep.notef("service %s.latency_p50_ms %.4f ms at %.0f req/s offered (%d requests; generator late tail %.3f ms)", pr.name, p50, pr.rate, len(lat), pr.lateTail)
		if pr.tailOK {
			m[pr.name+".latency_tail_ms"] = pr.tail.Value
			rep.notef("service %s.latency_tail_ms %.4f ms (%s)", pr.name, pr.tail.Value, pr.tail)
		}
		if cfg.trace {
			layerMetrics(m, pr)
		}
	}
	idleLat := make([]float64, len(idle.out))
	for i := range idle.out {
		idleLat[i] = idle.out[i].latencyMS()
	}
	m["latency_p50_ms"] = median(idleLat)
	rep.notef("service latency_p50_ms %.4f ms unloaded (%d requests over one connection, each sent when the previous was answered)",
		m["latency_p50_ms"], len(idleLat))
	m["service.capacity_rps"] = capacity(rungs)
	for _, pr := range rungs {
		rep.notef("service capacity rung %.0f req/s: tail %.3f ms (%s), last request %.3f ms, holds=%v, generator late ≤ %.3f ms",
			pr.rate, pr.tail.Value, pr.tail, pr.lastLatency, pr.holds(), pr.lateTail)
	}
	rep.notef("service capacity_rps %.4f req/s (tail limit %.0f ms, ladder %v)", m["service.capacity_rps"], latencyLimitMS, capacityLadder)
	if cfg.trace {
		var on, off []float64
		for i := range low.out {
			if traced(low.id0 + int64(i)) {
				on = append(on, low.out[i].latencyMS())
			} else {
				off = append(off, low.out[i].latencyMS())
			}
		}
		m["trace.overhead_ms"] = median(on) - median(off)
		rep.notef("service trace.overhead_ms %.4f ms (median latency of %d traced minus %d untraced low-rate requests)",
			m["trace.overhead_ms"], len(on), len(off))
	}
	return rep, nil
}

// holds reports whether a rung stayed within the latency limit without
// a growing backlog (its last request also finished within the limit).
func (pr *phaseResult) holds() bool {
	return pr.tailOK && pr.tail.Value <= latencyLimitMS && pr.lastLatency <= latencyLimitMS
}

// capacity estimates the highest offered rate whose tail stays under
// the limit without a growing backlog. A single rung that misses the
// limit below rungs that hold it is noise (one stall of the shared
// host), so the knee is the lowest rung from which every played rung
// misses; the rate is interpolated on the tail between the rung below
// the knee and the knee. When every rung holds, the top of the ladder
// is a lower bound and is returned.
func capacity(rungs []*phaseResult) float64 {
	if len(rungs) == 0 {
		return 0
	}
	knee := len(rungs)
	for knee > 0 && !rungs[knee-1].holds() {
		knee--
	}
	if knee == len(rungs) {
		return rungs[knee-1].rate
	}
	over := rungs[knee]
	worst := math.Max(over.tail.Value, over.lastLatency)
	if knee == 0 {
		return over.rate * latencyLimitMS / worst
	}
	under := rungs[knee-1]
	if math.IsInf(worst, 1) || !over.tailOK {
		return under.rate
	}
	f := (latencyLimitMS - under.tail.Value) / (worst - under.tail.Value)
	return under.rate + f*(over.rate-under.rate)
}

// parseAndCheck decodes every response and checks it: status 200 and
// not degraded, every repeat byte-identical to its first response, every
// first response feasible for a locally regenerated instance, and the
// phase's cache-hit delta equal to the generator's own repeat count.
func parseAndCheck(rep *report, phases []*phaseResult, workers int) {
	type job struct {
		p    problem
		res  *repro.Result
		fail func(string, ...any)
	}
	var jobs []job
	var mu sync.Mutex
	for _, pr := range phases {
		first := make(map[int]*outcome, len(pr.probs))
		repeats200, firsts200 := 0, 0
		for i := range pr.out {
			o, r := &pr.out[i], pr.reqs[i]
			rep.attempted++
			if o.err == nil && o.status == http.StatusOK {
				var resp service.SolveResponse
				if err := json.Unmarshal(o.body, &resp); err != nil {
					o.err = fmt.Errorf("decode response: %w", err)
				} else {
					o.result = resp.Result
				}
			}
			switch {
			case o.err != nil:
				rep.fail("%s request %d: %v", pr.name, i, o.err)
				continue
			case o.status != http.StatusOK:
				rep.fail("%s request %d: status %d: %s", pr.name, i, o.status, bytes.TrimSpace(o.body))
				continue
			case o.result == nil:
				rep.fail("%s request %d: response without a result", pr.name, i)
				continue
			case o.result.Degraded:
				rep.fail("%s request %d: answered by fallback %s", pr.name, i, o.result.FallbackSolver)
				continue
			}
			if r.first {
				firsts200++
				first[r.prob] = o
				p := pr.probs[r.prob]
				name, idx := pr.name, i
				jobs = append(jobs, job{p: p, res: o.result, fail: func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					rep.fail("%s request %d (%s %s-%d seed %d): "+format,
						append([]any{name, idx, p.Solver, p.Family, p.Size, p.Seed}, args...)...)
				}})
				continue
			}
			repeats200++
			if f, ok := first[r.prob]; ok && !bytes.Equal(f.body, o.body) {
				rep.fail("%s request %d: repeat differs from its first response", pr.name, i)
			}
		}
		if float64(repeats200) != pr.hits || float64(firsts200) != pr.misses {
			rep.reject("phase %s: daemon counted %.0f cache hits and %.0f misses, generator sent %d repeats and %d first requests that succeeded",
				pr.name, pr.hits, pr.misses, repeats200, firsts200)
		}
	}
	queue := make(chan job, len(jobs)) // one slot per job
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if err := feasible(j.p, j.res); err != nil {
					j.fail("%v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// feasible regenerates the problem locally and checks the answer: tap
// coverage ≥ k recomputed from the instance; every probe emitted by a
// placed beacon at one of its ends.
func feasible(p problem, res *repro.Result) error {
	sc, err := scenario.Generate(p.Family, p.Size, p.Seed)
	if err != nil {
		return err
	}
	if strings.HasPrefix(p.Solver, "beacon/") {
		if res.Beacons == nil {
			return fmt.Errorf("no beacon placement")
		}
		cands := append(append([]repro.NodeID(nil), sc.POP.Backbone...), sc.POP.Access...)
		ps, err := active.ComputeProbes(sc.POP.G, cands)
		if err != nil {
			return err
		}
		placed := make(map[repro.NodeID]bool, len(res.Beacons.Beacons))
		for _, b := range res.Beacons.Beacons {
			placed[b] = true
		}
		if len(res.Beacons.Sender) != len(ps.Probes) {
			return fmt.Errorf("%d senders for %d probes", len(res.Beacons.Sender), len(ps.Probes))
		}
		for i, pr := range ps.Probes {
			s := res.Beacons.Sender[i]
			if !placed[s] || (s != pr.U && s != pr.V) {
				return fmt.Errorf("probe %d (%d-%d) sent by %d, not a placed beacon at its ends", i, pr.U, pr.V, s)
			}
		}
		return nil
	}
	if res.Taps == nil {
		return fmt.Errorf("no tap placement")
	}
	in, err := sc.Instance()
	if err != nil {
		return err
	}
	if c := coverage(in, res.Taps.Edges); c < serviceCoverage-1e-9 {
		return fmt.Errorf("coverage %.6f below k=%.2f", c, serviceCoverage)
	}
	return nil
}

// layerMetrics fills one rate's per-layer metrics. A cache hit returns
// the stored Stats.Wall of the original solve, so solve time is read
// only from first requests, classified by the generator's own books.
func layerMetrics(m map[string]float64, pr *phaseResult) {
	p := pr.name + "."
	var solve, overhead, hit, wait []float64
	bySolver := make(map[string][]float64)
	for i := range pr.out {
		o, r := &pr.out[i], pr.reqs[i]
		wait = append(wait, ms(o.sent.Sub(o.due)))
		if !o.ok() {
			continue
		}
		if !r.first {
			hit = append(hit, o.latencyMS())
			continue
		}
		w := ms(o.result.Stats.Wall)
		solve = append(solve, w)
		overhead = append(overhead, o.latencyMS()-w)
		s := pr.probs[r.prob].Solver
		bySolver[s] = append(bySolver[s], w)
	}
	m[p+"service.solve_ms"] = median(solve)
	for _, s := range serviceSolvers {
		m[p+"service.solve_ms."+strings.ReplaceAll(s, "/", "-")] = median(bySolver[s])
	}
	m[p+"service.overhead_ms"] = median(overhead)
	m[p+"service.hit_ms"] = median(hit)
	m[p+"gen.wait_ms"] = median(wait)
	m[p+"gen.late_ms"] = pr.lateTail
	m[p+"engine.cache_hit_ratio"] = pr.hits / math.Max(pr.hits+pr.misses, 1)
	m[p+"service.shed"] = pr.shed
}
