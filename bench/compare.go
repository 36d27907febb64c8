package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, one per (workload, metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much b is worse than a as a share of a, signed by the
// metric's direction (negative = b is better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		switch {
		case b == 0:
			return 0
		case (b > 0) == (def.Better == "lower"):
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	w := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		w = -w
	}
	return w
}

// judge applies the metric's bound to two measurements. Deterministic
// metrics must match exactly, so any difference resolves to better or
// worse. Host metrics compare medians against the relative bound plus the
// absolute floor, and the quartiles decide whether the data can tell: the
// verdict is unresolved when the least and the most plausible worsening
// (bad quartile against good quartile, and the reverse) fall on different
// sides of the bound.
func judge(def metricDef, a, b metricValue) string {
	if def.Det {
		switch w := worsening(def, a.Value, b.Value); {
		case w > 0:
			return verdictWorse
		case w < 0:
			return verdictBetter
		}
		return verdictSame
	}
	if math.Abs(b.Value-a.Value) <= def.Floor {
		return verdictSame
	}
	if a.N < 2 || b.N < 2 {
		// One sample a side (the probe rows): no spread to resolve with.
		if math.Abs(worsening(def, a.Value, b.Value)) <= def.Bound {
			return verdictSame
		}
		return verdictUnresolved
	}
	// For a lower-is-better metric a's good quartile is Q1 and its bad one
	// Q3; for higher-is-better the roles swap.
	aGood, aBad, bGood, bBad := a.Q1, a.Q3, b.Q1, b.Q3
	if def.Better == "higher" {
		aGood, aBad, bGood, bBad = a.Q3, a.Q1, b.Q3, b.Q1
	}
	least := worsening(def, aBad, bGood)
	most := worsening(def, aGood, bBad)
	switch {
	case least > def.Bound:
		return verdictWorse
	case most < -def.Bound:
		return verdictBetter
	case most <= def.Bound && least >= -def.Bound:
		return verdictSame
	}
	return verdictUnresolved
}

// resultsFile is the layout of out/results.json.
type resultsFile struct {
	Meta      meta        `json:"meta"`
	Workloads []*wlResult `json:"workloads"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareRow is one line of the -compare table.
type compareRow struct {
	Workload, Metric, Unit, Verdict string
	A, B                            float64
}

// compareResults judges every (workload, metric) present in both files.
func compareResults(a, b *resultsFile) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *wlResult
		for _, w := range b.Workloads {
			if w.Workload == wa.Workload {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for _, pair := range []struct{ ma, mb map[string]metricValue }{{wa.Metrics, wb.Metrics}, {wa.Layers, wb.Layers}} {
			names := make([]string, 0, len(pair.ma))
			for name := range pair.ma {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				def, known := metricByName(name)
				mb, both := pair.mb[name]
				if !known || !both {
					continue
				}
				ma := pair.ma[name]
				rows = append(rows, compareRow{wa.Workload, name, def.Unit, judge(def, ma, mb), ma.Value, mb.Value})
			}
		}
	}
	return rows
}

// runCompare prints the table and reports whether any row is worse.
func runCompare(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Meta.Seed != b.Meta.Seed || a.Meta.Sizing != b.Meta.Sizing {
		fmt.Fprintf(w, "note: seeds or sizings differ (%d %s vs %d %s): deterministic rows need not match\n",
			a.Meta.Seed, a.Meta.Sizing, b.Meta.Seed, b.Meta.Sizing)
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-34s %16s %16s %-9s %s\n", "workload", "metric", "a", "b", "unit", "verdict")
	for _, r := range compareResults(a, b) {
		counts[r.Verdict]++
		fmt.Fprintf(w, "%-16s %-34s %16.6g %16.6g %-9s %s\n", r.Workload, r.Metric, r.A, r.B, r.Unit, r.Verdict)
	}
	fmt.Fprintf(w, "%d better, %d same, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0, nil
}
