package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesUnitsDirectionsBounds(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]+ (max 64, starting with a letter or digit)", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || w.Clients < 1 || w.Clients > 2 {
			t.Errorf("workload %s: needs a one-line why (<= 200 chars) and 1..nproc clients", w.Name)
		}
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no setup function", w.Name)
		}
	}
	all := append(append([]metricDef{failedShare}, endToEnd...), perLayer...)
	for _, d := range all {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is missing or malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
		// Every metric has a bound: deterministic ones must match exactly,
		// host ones carry a relative bound.
		if !d.Det && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("host metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || len(d.Name) <= len(d.Layer) || d.Name[:len(d.Layer)+1] != d.Layer+"." {
			t.Errorf("per-layer metric %s is not named after its layer %q", d.Name, d.Layer)
		}
	}
	setup, ok := metricByName("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must exist with unit s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// BENCHMARK.json repeats the vocabulary for the driver; the two must agree.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || len(bm.Command) != 2 || bm.Command[1] != "bench/run.sh" {
		t.Errorf("command %v / paths %v: want bash bench/run.sh over bench", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != fullSizing.Seconds {
		t.Errorf("run_seconds %g, the full sizing's default is %g", bm.RunSeconds, fullSizing.Seconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from spec.go", i, w.Name, w.Why)
		}
	}
	match := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v differs from spec.go's %s [%s, %s]", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if bounded && g.Bound != nil && *g.Bound != w.Bound {
				t.Errorf("%s %s: bound %g, spec.go says %g", kind, g.Name, *g.Bound, w.Bound)
			}
		}
	}
	match("end_to_end", bm.EndToEnd, endToEnd, true)
	match("per_layer", bm.PerLayer, perLayer, false)
}
