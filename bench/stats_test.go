package main

import (
	"math"
	"testing"
)

// The reported tail is the highest candidate percentile that still has at
// least ten samples beyond it.
func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99}, {5_000_000, 99.99},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if v, pct := tail(sorted); pct != 50 || v != 3 {
		t.Errorf("tail of 5 samples = %g at p%g, want the median 3 at p50", v, pct)
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if v, pct := tail(many); pct != 99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 0..999 = %g at p%g, want 989.01 at p99", v, pct)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize = %+v, want median 3, quartiles 2 and 4, n 5", s)
	}
	if got := geomean([]float64{0.25, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean(0.25, 1) = %g, want 0.5", got)
	}
}
