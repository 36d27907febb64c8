package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runBench runs the command in-process and returns its stdout.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	return stdout.String()
}

// The smoke sizing keeps every workload, its checks and the determinism
// self-check alive under go test, in a few seconds.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Now()
	runBench(t, "-smoke", "-out", dir)
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("smoke run of all four workloads took %v, budget 5 s", d)
	}
	rf, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in results, want %d", len(rf.Workloads), len(workloads))
	}
	if rf.Meta.Seed != defaultSeed || rf.Meta.GoVersion == "" || rf.Meta.GOMAXPROCS < 1 || rf.Meta.NProc < 1 || rf.Meta.Sizing != "smoke" {
		t.Errorf("results meta incomplete: %+v", rf.Meta)
	}
	for i, w := range rf.Workloads {
		if w.Workload != workloads[i].Name {
			t.Errorf("workload %d is %s, want %s", i, w.Workload, workloads[i].Name)
		}
		if !w.correct() || w.Attempted < 1 || w.Passes < minPasses {
			t.Errorf("%s: attempted %d, failed %d, passes %d, determinism %v: %v", w.Workload, w.Attempted, w.Failed, w.Passes, w.DetOK, w.Fails)
		}
		for _, d := range endToEnd {
			mv, ok := w.Metrics[d.Name]
			if !ok || !(mv.Value > 0) || mv.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Workload, d.Name, mv, d.Unit)
			}
		}
		if mv := w.Metrics[failedShare.Name]; mv.Value != 0 {
			t.Errorf("%s: failed_share %g", w.Workload, mv.Value)
		}
	}
	// Same seed, same commit: a second run reproduces every deterministic
	// row. (Host rows of a 0.2 s smoke run are noise; -compare must only
	// read and judge them.)
	dir2 := t.TempDir()
	runBench(t, "-smoke", "-out", dir2)
	b, err := readResults(filepath.Join(dir2, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := compareResults(rf, b)
	if want := len(workloads) * (len(endToEnd) + 1); len(rows) != want {
		t.Errorf("-compare judged %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if def, _ := metricByName(r.Metric); def.Det && r.Verdict != verdictSame {
			t.Errorf("%s %s: deterministic row moved between two runs: %g vs %g", r.Workload, r.Metric, r.A, r.B)
		}
	}
	var table bytes.Buffer
	if _, err := runCompare(&table, filepath.Join(dir, "results.json"), filepath.Join(dir2, "results.json")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "unresolved") || !strings.Contains(table.String(), "spec_cycle_ratio") {
		t.Errorf("-compare table:\n%s", table.String())
	}
}

// One workload by name is a driver run: the last stdout line is the
// contract's JSON object.
func TestDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		out := runBench(t, "--workload", "serve-warm", "--seed", "7", "--seconds", "0.1", "--trace", trace, "-smoke", "-out", t.TempDir())
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var dl driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if !dl.Correct || dl.Attempted < 1 || dl.Failed != 0 || len(dl.Metrics) != len(want) {
			t.Errorf("trace %s: driver line %+v, want correct with %d metrics", trace, dl, len(want))
		}
		for _, d := range want {
			if m, ok := dl.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or in the wrong unit: %+v", trace, d.Name, m)
			}
		}
	}
}

// The traced run writes one trace per workload, attributes op wall to
// layers with the remainder unattributed, and fills the whole ledger.
func TestSmokeTracedRun(t *testing.T) {
	dir := t.TempDir()
	out := runBench(t, "-smoke", "-trace", "1", "-out", dir)
	rf, err := readResults(filepath.Join(dir, "results-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rf.Workloads {
		for _, d := range perLayer {
			if _, ok := w.Layers[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Workload, d.Name)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.OpWall <= 0 || len(tf.Layers) == 0 {
			t.Errorf("%s: trace has %d spans, op wall %d, %d layers", w.Workload, len(tf.Spans), tf.OpWall, len(tf.Layers))
		}
		var explained int64
		for _, lt := range tf.Layers {
			explained += lt.Self
		}
		// Boot and shutdown spans of churn-restart sit outside any op, so
		// explained time may exceed op wall there; elsewhere it closes.
		if w.Workload != "churn-restart" && explained+tf.Unattributed != tf.OpWall {
			t.Errorf("%s: layers %d + unattributed %d != op wall %d", w.Workload, explained, tf.Unattributed, tf.OpWall)
		}
	}
	// The predictions the issue makes about idle layers.
	byName := map[string]*wlResult{}
	for _, w := range rf.Workloads {
		byName[w.Workload] = w
	}
	if v := byName["serve-warm"].Layers; v["brewsvc.traces"].Value != 0 || v["vm.call_busy_s"].Value != 0 || v["brewsvc.hit_ratio"].Value != 1 {
		t.Errorf("serve-warm timed phase: traces %g, vm busy %g s, hit ratio %g; want 0, 0, 1",
			v["brewsvc.traces"].Value, v["vm.call_busy_s"].Value, v["brewsvc.hit_ratio"].Value)
	}
	if v := byName["stencil-steady"].Layers; v["brew.traced_instrs"].Value != 0 || v["vm.instructions"].Value == 0 {
		t.Errorf("stencil-steady timed phase: traced %g, emulated %g", v["brew.traced_instrs"].Value, v["vm.instructions"].Value)
	}
	if v := byName["rewrite-corpus"].Layers; v["brew.traced_instrs"].Value == 0 || v["vm.instructions"].Value != 0 {
		t.Errorf("rewrite-corpus timed phase: traced %g, emulated %g", v["brew.traced_instrs"].Value, v["vm.instructions"].Value)
	}
	if v := byName["churn-restart"].Layers; v["brewsvc.traces"].Value == 0 || v["brewsvc.evictions"].Value == 0 || v["specmgr.deopts"].Value == 0 {
		t.Errorf("churn-restart round 1: traces %g, evictions %g, deopts %g; want all non-zero",
			v["brewsvc.traces"].Value, v["brewsvc.evictions"].Value, v["specmgr.deopts"].Value)
	}
	if !strings.Contains(out, "unattributed") {
		t.Errorf("traced run does not print the unattributed remainder:\n%s", out)
	}
}
