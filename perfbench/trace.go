package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into the
// program's public functions and writes them out when the run ends. A
// nil *tracer records nothing, so untraced operations pass nil.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the enclosing span's ID (-1 for a
// root); Req groups the spans of one operation (a figure pass, a churn
// step, an HTTP request).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// when returns t for a traced operation and nil for an untraced one.
func (t *tracer) when(on bool) *tracer {
	if on {
		return t
	}
	return nil
}

// start opens a span and returns its ID (-1 when t is nil).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span with explicit bounds, for intervals that start
// before any code runs for them (a request's due instant).
func (t *tracer) add(name string, parent int, req int64, from, to time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: from.Sub(t.epoch).Nanoseconds(), End: to.Sub(t.epoch).Nanoseconds()})
	return id
}

// selfTime is one span name's aggregate: total duration, total self
// time (duration minus the part its child spans cover) and count.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.Total += float64(dur) / 1e6
		a.Self += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

func (t *tracer) selfTimeLines() []string {
	var lines []string
	for _, s := range t.selfTimes() {
		lines = append(lines, fmt.Sprintf("self %-34s count %7d total %12.3f ms self %12.3f ms", s.Name, s.Count, s.Total, s.Self))
	}
	return lines
}

// write saves the spans, their self-time summary and the host stamp.
func (t *tracer) write(path, workload string, seed int64, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	self := t.selfTimes()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Host     host       `json:"host"`
		Self     []selfTime `json:"self"`
		Spans    []span     `json:"spans"`
	}{workload, seed, h, self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
