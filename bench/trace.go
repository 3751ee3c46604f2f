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

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions (the program under test carries no
// instrumentation of its own). Times are nanoseconds since the trace
// started. Spans of one request, replica or broadcast share ID; Parent
// is the index of the span that caused this one, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so workloads make the same calls traced or not and
// the untraced run pays only a nil check.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// newTracer starts a trace whose clock origin is now.
func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its index for End and for children's
// parent argument. It is safe for concurrent use (smc replicas run on
// a worker pool).
func (t *Tracer) Begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Start: now, Parent: parent})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Add records a span whose start and end the caller already measured —
// the serving clients time every phase of a job anyway, so tracing them
// costs only this append.
func (t *Tracer) Add(name, id string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	s := Span{Name: name, ID: id, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// Spans returns the recorded spans; call it once recording has stopped.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (parallel replicas under one smc.Check) and are clipped to the
// parent's interval, so the covered part is the length of their union.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is one row of the "where the time goes" table.
type spanSummary struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// summarize groups spans by name, ordered by first appearance (which is
// top to bottom of the call stack for the workloads here).
func summarize(spans []Span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, spanSummary{Name: s.Name})
		}
		out[k].Count++
		out[k].TotalNs += s.End - s.Start
		out[k].SelfNs += self[i]
	}
	return out
}

// durationsMs returns the durations, in milliseconds, of every span
// called name.
func durationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeTrace stores the spans of one traced workload run under
// bench/out/.
func writeTrace(root, workload string, spans []Span) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
