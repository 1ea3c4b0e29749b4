package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rdlroute/internal/obs"
)

// memTracer is the benchmark's in-memory obs.Tracer, attached through
// router.Options.Tracer on traced routes. It keeps every span (name,
// start, end, parent and run ID), every event with its timestamp, the
// counters and the distribution samples; write saves them when the run
// ends.
//
// A span's parent is the innermost span still open when it starts. That
// matches the flow, where only the routing goroutine opens spans: the
// benchmark's "route" span around each route and the router's stage spans
// inside it.
type memTracer struct {
	mu     sync.Mutex
	t0     time.Time
	run    int
	open   []int // IDs of the spans still open, innermost last
	spans  []spanRec
	events []eventRec
	counts map[string]int64
	dists  map[string][]float64
}

// spanRec is one span; times are offsets from the tracer's creation.
type spanRec struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // -1 for a root span
	Run    int            `json:"run"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

type eventRec struct {
	Run   int            `json:"run"`
	Name  string         `json:"name"`
	At    time.Duration  `json:"at_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func newMemTracer() *memTracer {
	return &memTracer{t0: time.Now(), counts: map[string]int64{}, dists: map[string][]float64{}}
}

// setRun tags everything recorded from now on with run ID id.
func (t *memTracer) setRun(id int) {
	t.mu.Lock()
	t.run = id
	t.mu.Unlock()
}

func attrMap(attrs []obs.Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

func (t *memTracer) Enabled() bool { return true }

func (t *memTracer) Span(name string, attrs ...obs.Attr) obs.Span {
	m := attrMap(attrs)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.t0), End: -1, Attrs: m})
	t.open = append(t.open, id)
	return memSpan{t, id}
}

type memSpan struct {
	t  *memTracer
	id int
}

func (s memSpan) End(attrs ...obs.Attr) {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[s.id]
	sp.End = time.Since(t.t0)
	for _, a := range attrs {
		if sp.Attrs == nil {
			sp.Attrs = map[string]any{}
		}
		sp.Attrs[a.Key] = a.Value()
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s.id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

func (t *memTracer) Event(name string, attrs ...obs.Attr) {
	m := attrMap(attrs)
	t.mu.Lock()
	t.events = append(t.events, eventRec{Run: t.run, Name: name, At: time.Since(t.t0), Attrs: m})
	t.mu.Unlock()
}

func (t *memTracer) Count(name string, delta int64) {
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

func (t *memTracer) Observe(name string, v float64) {
	t.mu.Lock()
	t.dists[name] = append(t.dists[name], v)
	t.mu.Unlock()
}

// The analyses below run after tracing has finished.

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func (t *memTracer) selfTimes() map[string]time.Duration {
	children := map[int][]spanRec{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered(children[s.ID])
	}
	return self
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []spanRec) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var n time.Duration
	end := time.Duration(math.MinInt64)
	for _, s := range spans {
		if lo := max(s.Start, end); s.End > lo {
			n += s.End - lo
		}
		end = max(end, s.End)
	}
	return n
}

// rootTime sums the durations of the root spans: the traced wall time.
func (t *memTracer) rootTime() time.Duration {
	var n time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			n += s.End - s.Start
		}
	}
	return n
}

// seqGroup names the stage-4 outcome of a net.route event: "corridor" or
// "fallback" for a routed net, by the search that routed it, and "failed"
// for a net left unrouted.
func seqGroup(e eventRec) string {
	if e.Attrs["outcome"] == "failed" {
		return "failed"
	}
	mode, _ := e.Attrs["mode"].(string)
	return mode
}

// seqIntervals returns, in milliseconds, the time from each stage-4
// net.route event back to the previous one, or to the stage's start for
// the first, grouped by seqGroup.
func (t *memTracer) seqIntervals() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name != "stage:sequential" {
			continue
		}
		prev := s.Start
		for _, e := range t.events {
			if e.Name != "net.route" || e.Attrs["stage"] != "sequential" || e.At < s.Start || e.At > s.End {
				continue
			}
			g := seqGroup(e)
			out[g] = append(out[g], float64(e.At-prev)/float64(time.Millisecond))
			prev = e.At
		}
	}
	return out
}

// netStats counts net.route events by outcome — "concurrent" for stage 2,
// seqGroup for stage 4 — and sums the A* expansions of the stage-4 nets
// that went to the unrestricted fallback search.
func (t *memTracer) netStats() (counts map[string]int, fallbackExpanded float64) {
	counts = map[string]int{}
	for _, e := range t.events {
		if e.Name != "net.route" {
			continue
		}
		switch e.Attrs["stage"] {
		case "concurrent":
			counts["concurrent"]++
		case "sequential":
			counts[seqGroup(e)]++
			if n, ok := e.Attrs["expanded"].(int64); ok && e.Attrs["mode"] == "fallback" {
				fallbackExpanded += float64(n)
			}
		}
	}
	return counts, fallbackExpanded
}

func (t *memTracer) distSum(name string) float64 {
	var s float64
	for _, v := range t.dists[name] {
		s += v
	}
	return s
}

// write saves the spans, events and counters as one JSON document.
func (t *memTracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans    []spanRec        `json:"spans"`
		Events   []eventRec       `json:"events"`
		Counters map[string]int64 `json:"counters"`
	}{t.spans, t.events, t.counts})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
