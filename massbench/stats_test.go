package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: Summarize must sort
	}
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	cases := []struct {
		n      int
		tail   string
		value  float64
		beyond int
	}{
		{9, "p50", 5, 4},           // too few for p90: only the median
		{99, "p50", 50, 49},        // p90 would leave 9 beyond
		{100, "p90", 90, 10},       // exactly ten beyond p90
		{999, "p90", 900, 99},      // p99 would leave 9 beyond
		{1000, "p99", 990, 10},     // exactly ten beyond p99
		{10000, "p99.9", 9990, 10}, // exactly ten beyond p99.9
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.N != c.n || s.Tail != c.tail || s.TailV != c.value || s.Beyond != c.beyond {
			t.Errorf("n=%d: got %+v, want tail %s = %g with %d beyond", c.n, s, c.tail, c.value, c.beyond)
		}
		if want := float64((c.n + 1) / 2); s.P50 != want {
			t.Errorf("n=%d: median %g, want %g", c.n, s.P50, want)
		}
	}
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestAtLeastRefusesThinTails(t *testing.T) {
	if _, err := AtLeast(seq(99), 0.90); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond")
	}
	if v, err := AtLeast(seq(100), 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90", v, err)
	}
	if v, err := AtLeast(seq(3), 0.5); err != nil || v != 2 {
		t.Errorf("median of 3 = %g, %v; want 2", v, err)
	}
	if _, err := AtLeast(nil, 0.5); err == nil {
		t.Error("median of no samples accepted")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestStealShare(t *testing.T) {
	a := []uint64{100, 0, 10, 500, 0, 0, 0, 5}
	b := []uint64{160, 0, 20, 520, 0, 0, 0, 15}
	if got := stealShare(a, b); got != 0.1 {
		t.Errorf("steal share = %g, want 0.1 (10 of 100 ticks)", got)
	}
	if got := stealShare(nil, b); got != 0 {
		t.Errorf("steal share without a start reading = %g, want 0", got)
	}
}

func TestBlockedIgnoresOneSpoiledBlock(t *testing.T) {
	var xs []float64
	for b := 0; b < 5; b++ {
		for i := 0; i < 100; i++ {
			v := float64(i + 1)
			if b == 2 {
				v *= 10 // one block measured during a host stall
			}
			xs = append(xs, v)
		}
	}
	if v, err := Blocked(xs, 100, 0.90); err != nil || v != 90 {
		t.Errorf("blocked p90 = %g, %v; want 90", v, err)
	}
	if pooled := Percentile(xs, 0.90); pooled <= 100 {
		t.Errorf("pooled p90 = %g; the spoiled block should lift it past 100", pooled)
	}
	// The remainder joins the last block: 250 samples (250 down to 1) are
	// blocks 250..151 and 150..1, medians 200 and 75, and the lower
	// middle of the two is reported.
	if v, err := Blocked(seq(250), 100, 0.5); err != nil || v != 75 {
		t.Errorf("blocked median of 250 = %g, %v; want 75", v, err)
	}
	if _, err := Blocked(seq(99), 100, 0.90); err == nil {
		t.Error("blocked p90 of 99 samples accepted with 9 beyond")
	}
}
