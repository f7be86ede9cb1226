package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "run", Start: 30, End: 70}, // overlaps setup by 10
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130}, // runs past its parent
		{ID: 6, Parent: 0, Name: "run", Start: 200, End: 210},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"iteration": 100 - 60 - 10, // children cover [10,70] and [90,100]
		"setup":     30 - 5,
		"run":       40 + 10, // summed over both spans of that name
		"leaf":      5,
		"late":      40,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerRecordsParentsAndNilIsInert(t *testing.T) {
	var off *Tracer
	if id := off.Start("x", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Error("nil tracer has spans")
	}

	tr := NewTracer("w-s1-t1")
	root := tr.Start("root", 0)
	kid := tr.Start("kid", root)
	open := tr.Start("open", root)
	tr.End(kid)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (unclosed %d dropped)", len(spans), open)
	}
	if spans[1].Name != "kid" || spans[1].Parent != root || spans[1].Run != "w-s1-t1" {
		t.Errorf("kid span = %+v", spans[1])
	}
	if spans[0].End < spans[1].End || spans[0].Start > spans[1].Start {
		t.Errorf("root %+v does not enclose kid %+v", spans[0], spans[1])
	}
}
