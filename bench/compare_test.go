package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	floored := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10, Floor: 0.05}
	exact := metricDef{Name: "spec_code_bytes", Better: "lower", Det: true}
	exactUp := metricDef{Name: "brew.elided", Better: "higher", Det: true}
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Q1: q1, Q3: q3, N: 5} }
	point := func(v float64) metricValue { return metricValue{Value: v, Q1: v, Q3: v, N: 1} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"within the bound", lower, mv(100, 98, 102), mv(104, 102, 106), verdictSame},
		{"clearly slower", lower, mv(100, 98, 102), mv(130, 125, 135), verdictWorse},
		{"clearly faster", lower, mv(100, 98, 102), mv(70, 68, 72), verdictBetter},
		{"quartiles straddle the bound", lower, mv(100, 90, 110), mv(112, 100, 124), verdictUnresolved},
		{"throughput drop", higher, mv(1000, 980, 1020), mv(800, 790, 810), verdictWorse},
		{"throughput gain", higher, mv(1000, 980, 1020), mv(1300, 1280, 1320), verdictBetter},
		{"throughput noise", higher, mv(1000, 900, 1100), mv(880, 780, 1000), verdictUnresolved},
		{"relative jump under the absolute floor", floored, mv(0.020, 0.019, 0.021), mv(0.040, 0.039, 0.041), verdictSame},
		{"past bound and floor", floored, mv(1.0, 0.99, 1.01), mv(1.3, 1.29, 1.31), verdictWorse},
		{"deterministic, identical", exact, point(4126), point(4126), verdictSame},
		{"deterministic, one byte more", exact, point(4126), point(4127), verdictWorse},
		{"deterministic, fewer bytes", exact, point(4126), point(4000), verdictBetter},
		{"deterministic, higher is better", exactUp, point(10), point(9), verdictWorse},
		{"single samples cannot resolve a change", lower, point(100), point(150), verdictUnresolved},
		{"single samples inside the bound", lower, point(100), point(105), verdictSame},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsPairsByWorkloadAndMetric(t *testing.T) {
	res := func(bytes, ops float64) *resultsFile {
		return &resultsFile{Workloads: []*wlResult{{
			Workload: "stencil-steady",
			Metrics: map[string]metricValue{
				"spec_code_bytes": {Value: bytes, Q1: bytes, Q3: bytes, N: 1, Kind: "det"},
				"ops_per_s":       {Value: ops, Q1: ops * 0.99, Q3: ops * 1.01, N: 5, Kind: "host"},
				"not_a_metric":    {Value: 1},
			},
			Layers: map[string]metricValue{"vm.cycles": {Value: 7, Q1: 7, Q3: 7, N: 1}},
		}}}
	}
	rows := compareResults(res(100, 10), res(101, 10.2))
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	want := map[string]string{
		"stencil-steady/spec_code_bytes": verdictWorse,
		"stencil-steady/ops_per_s":       verdictSame,
		"stencil-steady/vm.cycles":       verdictSame,
	}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want exactly %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
}

func TestDiffDetIsExact(t *testing.T) {
	a := map[string]float64{"vm.cycles": 100, "brew.kept": 7}
	if d := diffDet(a, map[string]float64{"vm.cycles": 100, "brew.kept": 7}); len(d) != 0 {
		t.Errorf("identical rows reported as different: %v", d)
	}
	if d := diffDet(a, map[string]float64{"vm.cycles": 100.0000001, "brew.kept": 7}); len(d) != 1 {
		t.Errorf("a one-ulp-scale difference must be reported, got %v", d)
	}
	if d := diffDet(a, map[string]float64{"vm.cycles": 100}); len(d) != 1 {
		t.Errorf("a missing row must be reported, got %v", d)
	}
}
