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

// span is one timed call into a layer of the program. Start and End are
// nanoseconds since the tracer was created; Parent is 0 for a root span.
// Spans of one request share their root's ID through Parent links, also
// across the HTTP hop of the daemon workload.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer records
// nothing and costs one branch per call, so untraced runs measure the
// program alone. Safe for concurrent use: the daemon workload records from
// the generator, the SSE reader and the server's handler goroutines.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// current is the span the benchmark's own goroutine is inside; program
	// callbacks that run synchronously on it (policy and autoscaler
	// decorators, colocate reports) nest under it.
	current int
	// spanCost is the measured wall cost of recording one span.
	spanCost time.Duration
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.calibrate()
	}
	return t
}

// calibrate measures the cost of one begin/end pair, so the report can
// estimate how much of a traced run's wall time the tracing itself took.
func (t *tracer) calibrate() {
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0))
	}
	t.spanCost = time.Since(start) / n
	t.spans = t.spans[:0]
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, Start: t.now(), End: -1})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginAt opens a span that started at t, for intervals whose start was
// observed before it was known to be one (a scheduled send time, the gap
// between two callbacks). endAt closes it at a given instant.
func (t *tracer) beginAt(name string, parent int, start time.Time) int {
	if !t.on {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: -1})
}

func (t *tracer) endAt(id int, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// enter opens a span nested in the current one and makes it current; leave
// restores the previous current span. For the benchmark's own goroutine.
func (t *tracer) enter(name string) (id, prev int) {
	prev = t.current
	id = t.begin(name, prev)
	if t.on {
		t.current = id
	}
	return id, prev
}

func (t *tracer) leave(id, prev int) {
	t.end(id)
	t.current = prev
}

// layerTime is one span name's aggregate: how many spans, their total
// duration and their self time (duration minus the time child spans cover).
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates every closed span by name.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-covered(s, children[s.ID])) / 1e6
		out[s.Name] = lt
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// overhead estimates the traced run's tracing cost from the calibrated cost
// per span. The measured overhead is the difference between this run's
// end-to-end figures and an untraced run's.
func (t *tracer) overhead(wallSec float64) map[string]float64 {
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	est := float64(n) * t.spanCost.Seconds()
	return map[string]float64{
		"spans":       float64(n),
		"ns_per_span": float64(t.spanCost.Nanoseconds()),
		"est_s":       est,
		"est_share":   est / wallSec,
	}
}

// write saves the spans as JSON under the build directory and returns the
// path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
