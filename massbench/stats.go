package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a timing distribution reduced by the benchmark's percentile
// rule: the median, plus the highest standard percentile that still has
// at least tailMin samples beyond it, with the sample count.
type Summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   string  `json:"tail"` // e.g. "p99"; "p50" when too few samples
	TailV  float64 `json:"tail_value"`
	Beyond int     `json:"beyond"` // samples strictly above the tail rank
}

// tailMin is the minimum number of samples a reported tail percentile
// must have beyond it.
const tailMin = 10

// tailLevels are the candidate percentiles, highest last.
var tailLevels = []struct {
	name string
	p    float64
}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// Percentile returns the nearest-rank percentile p of xs (xs need not be
// sorted; it is not modified). It is NaN for no samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Summarize applies the percentile rule to xs.
func Summarize(xs []float64) Summary {
	s := sorted(xs)
	sum := Summary{N: len(s)}
	if len(s) == 0 {
		return sum
	}
	sum.P50 = s[rank(len(s), 0.5)]
	sum.Tail, sum.TailV, sum.Beyond = "p50", sum.P50, len(s)-1-rank(len(s), 0.5)
	for _, lv := range tailLevels[1:] {
		r := rank(len(s), lv.p)
		if beyond := len(s) - 1 - r; beyond >= tailMin {
			sum.Tail, sum.TailV, sum.Beyond = lv.name, s[r], beyond
		}
	}
	return sum
}

// String renders the summary as "p50 X, p99 Y (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("p50 %.4g, %s %.4g (n=%d)", s.P50, s.Tail, s.TailV, s.N)
}

// AtLeast returns percentile p of xs, or an error when fewer than tailMin
// samples lie beyond it — a named tail metric must obey the percentile
// rule, not just exist.
func AtLeast(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || n-1-rank(n, p) < tailMin && p > 0.5 {
		return math.NaN(), fmt.Errorf("%d samples leave fewer than %d beyond p%g", n, tailMin, p*100)
	}
	return Percentile(xs, p), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Blocked returns percentile p of xs taken block by block: xs, in the
// order measured, is cut into consecutive blocks of size samples (the
// remainder joins the last block), each block's percentile obeys the
// percentile rule, and the median of the blocks' values is returned. A
// stall of the host that spoils one block then moves the result no more
// than any other single block does, where it would shift a pooled tail.
func Blocked(xs []float64, size int, p float64) (float64, error) {
	n := max(1, len(xs)/size)
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		v, err := AtLeast(xs[i*size:end], p)
		if err != nil {
			return math.NaN(), err
		}
		vals = append(vals, v)
	}
	return Median(vals), nil
}
