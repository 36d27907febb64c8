package brew_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

const vecSrc = `
double vsum(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += a[i]; }
    return s;
}
double vdot(double *a, long n, double f) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += a[i] * f; }
    return s;
}
`

func vecSetup(t *testing.T) (*vm.Machine, *minc.Linked, uint64, []float64) {
	t.Helper()
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, vecSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	arr, err := m.AllocHeap(n * 8)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%7)*0.25 + 1
	}
	if err := m.WriteF64Slice(arr, vals); err != nil {
		t.Fatal(err)
	}
	return m, l, arr, vals
}

func TestVectorizeSumReduction(t *testing.T) {
	m, l, arr, vals := vecSetup(t)
	fn, _ := l.FuncAddr("vsum")
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	cfg.Vectorize = true
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, uint64(len(vals))}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Result.Listing(), "vload") || !strings.Contains(res.Result.Listing(), "vhadd") {
		t.Fatalf("no vector code generated:\n%s", res.Result.Listing())
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	got, err := m.CallFloat(res.Addr, []uint64{arr, uint64(len(vals))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("vectorized sum = %g, want %g", got, want)
	}
	// Fewer instructions than the scalar specialization.
	cfg2 := brew.NewConfig().SetParam(2, brew.ParamKnown)
	scalar, err := brew.Do(m, &brew.Request{Config: cfg2, Fn: fn, Args: []uint64{0, uint64(len(vals))}})
	if err != nil {
		t.Fatal(err)
	}
	count := func(f uint64) uint64 {
		before := m.Stats.Instructions
		if _, err := m.CallFloat(f, []uint64{arr, uint64(len(vals))}, nil); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Instructions - before
	}
	vi, si := count(res.Addr), count(scalar.Addr)
	t.Logf("vectorized %d instrs vs scalar %d", vi, si)
	if vi >= si {
		t.Errorf("vectorized (%d) not cheaper than scalar (%d)", vi, si)
	}
}

func TestVectorizeMulAccumulate(t *testing.T) {
	m, l, arr, vals := vecSetup(t)
	fn, _ := l.FuncAddr("vdot")
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	cfg.Vectorize = true
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, uint64(len(vals))}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Result.Listing(), "vmul") {
		t.Logf("multiply form not vectorized (pattern shape dependent):\n%s", res.Result.Listing())
	}
	f := 1.5
	want := 0.0
	for _, v := range vals {
		want += v * f
	}
	got, err := m.CallFloat(res.Addr, []uint64{arr, uint64(len(vals))}, []float64{f})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("vectorized dot = %g, want %g", got, want)
	}
}

func TestVectorizeOffByDefault(t *testing.T) {
	m, l, _, vals := vecSetup(t)
	fn, _ := l.FuncAddr("vsum")
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, uint64(len(vals))}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Result.Listing(), "vload") {
		t.Errorf("vector code without opt-in:\n%s", res.Result.Listing())
	}
}

func TestVectorizePreservedWhenNotMatching(t *testing.T) {
	// Strided access must not be vectorized.
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
double strided(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i = i + 2) { s += a[i]; }
    return s;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("strided")
	arr, _ := m.AllocHeap(32 * 8)
	vals := make([]float64, 32)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i) * 0.5
		if i%2 == 0 {
			want += vals[i]
		}
	}
	if err := m.WriteF64Slice(arr, vals); err != nil {
		t.Fatal(err)
	}
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	cfg.Vectorize = true
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, 32}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Result.Listing(), "vload") {
		t.Errorf("strided access vectorized:\n%s", res.Result.Listing())
	}
	got, err := m.CallFloat(res.Addr, []uint64{arr, 32}, nil)
	if err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("strided sum = %g, %v; want %g", got, err, want)
	}
}
