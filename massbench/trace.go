package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed layer call made from the benchmark: a name, its
// interval, the span that caused it (0 for a root) and the workload run
// it belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per layer call.
type Tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a recorder for the workload run id.
func NewTracer(run string) *Tracer { return &Tracer{run: run, epoch: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Run: t.run, Start: time.Since(t.epoch).Nanoseconds(), End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.MarshalIndent(t.Spans(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children (children overlapping each other
// are counted once; child time outside the parent is ignored).
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max64(iv[0], cur), min64(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
