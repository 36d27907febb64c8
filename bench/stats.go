package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summary is the median and quartiles of one metric's repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(vals []float64) float64 { return summarize(vals).Median }

// tailPercentiles are the candidates for a reported tail, highest first,
// each with the samples per million that lie beyond it.
var tailPercentiles = []struct {
	pct    float64
	beyond int // per million
}{{99.99, 100}, {99.9, 1_000}, {99, 10_000}, {95, 50_000}, {90, 100_000}, {75, 250_000}}

// minBeyond is how many samples must lie beyond a reported tail percentile
// (choosing-metrics: "the highest percentile that has at least ten samples
// beyond it").
const minBeyond = 10

// pickTail returns the highest candidate percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when even the lowest does not.
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n*p.beyond >= minBeyond*1_000_000 {
			return p.pct
		}
	}
	return 0
}

// tail reports the picked tail percentile of the samples and which one it
// was; with too few samples for any tail it falls back to the median.
func tail(sorted []float64) (value, pct float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	pct = pickTail(len(sorted))
	if pct == 0 {
		return quantile(sorted, 0.5), 50
	}
	return quantile(sorted, pct/100), pct
}

// sortedNS converts nanosecond samples into an ascending float slice.
func sortedNS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// p50 is the median of nanosecond samples (0 with none).
func p50(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return quantile(sortedNS(ns), 0.5)
}

// geomean is the geometric mean of positive values (0 with none).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}
