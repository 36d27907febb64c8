package brew_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// These tests exercise the paper's real workflow: the rewriter consumes
// binary code produced by an optimizing compiler it does not control.

const stencilSrc = `
struct P { double f; long dx; long dy; };
struct S { long ps; struct P p[]; };
struct S s5 = {5, {{-1.0, 0, 0}, {0.25, -1, 0}, {0.25, 1, 0}, {0.25, 0, -1}, {0.25, 0, 1}}};

double apply(double *m, long xs, struct S *s) {
    double v = 0.0;
    for (long i = 0; i < s->ps; i++) {
        struct P *p = s->p + i;
        v += p->f * m[p->dx + xs * p->dy];
    }
    return v;
}
`

func TestRewriteCompiledStencilApply(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, stencilSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	apply, _ := l.FuncAddr("apply")
	s5, _ := l.GlobalAddr("s5")

	const xs, ys = 16, 8
	grid, err := m.AllocHeap(xs * ys * 8)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, xs*ys)
	for i := range vals {
		vals[i] = float64((i*7)%13) * 0.25
	}
	if err := m.WriteF64Slice(grid, vals); err != nil {
		t.Fatal(err)
	}

	// Figure 5: xs known, stencil struct known fixed data.
	structSize := uint64(8 + 5*24)
	cfg := brew.NewConfig().
		SetParam(2, brew.ParamKnown).
		SetParamPtrToKnown(3, structSize)
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: apply, Args: []uint64{0, xs, s5}})
	if err != nil {
		t.Fatalf("Rewrite: %v\n", err)
	}

	// The specialized version must be a straight-line unrolled kernel: no
	// branches, no loop, coefficients as immediates.
	if strings.Contains(res.Result.Listing(), "jcc") || strings.Contains(res.Result.Listing(), "jlt") {
		t.Errorf("specialized apply still branches:\n%s", res.Result.Listing())
	}

	golden := func(x, y int) float64 {
		c := y*xs + x
		return 0.25*(vals[c-1]+vals[c+1]+vals[c-xs]+vals[c+xs]) - vals[c]
	}
	for _, pt := range [][2]int{{1, 1}, {5, 3}, {xs - 2, ys - 2}} {
		addr := grid + uint64((pt[1]*xs+pt[0])*8)
		want, errO := m.CallFloat(apply, []uint64{addr, xs, s5}, nil)
		if errO != nil {
			t.Fatal(errO)
		}
		got, errR := m.CallFloat(res.Addr, []uint64{addr, xs, s5}, nil)
		if errR != nil {
			t.Fatal(errR)
		}
		if got != want || math.Abs(got-golden(pt[0], pt[1])) > 1e-12 {
			t.Errorf("apply(%v): original %g, rewritten %g, golden %g", pt, want, got, golden(pt[0], pt[1]))
		}
	}

	// The headline claim: far fewer instructions per stencil application.
	count := func(fn uint64) uint64 {
		before := m.Stats.Instructions
		if _, err := m.CallFloat(fn, []uint64{grid + (xs+1)*8, xs, s5}, nil); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Instructions - before
	}
	orig := count(apply)
	spec := count(res.Addr)
	t.Logf("apply: original %d instrs, specialized %d instrs (listing %d blocks)", orig, spec, res.Result.Blocks)
	if spec*2 > orig {
		t.Errorf("specialization too weak: %d vs %d instrs\n%s", spec, orig, res.Result.Listing())
	}
}

func TestRewriteCompiledLoopUnknownBound(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long sumsq(long n) {
    long s = 0;
    for (long i = 1; i <= n; i++) { s += i * i; }
    return s;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("sumsq")
	res, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	for _, n := range []uint64{0, 1, 5, 50} {
		want, _ := m.Call(fn, n)
		got, err := m.Call(res.Addr, n)
		if err != nil || got != want {
			t.Errorf("sumsq(%d): rewritten %d (%v), original %d", n, got, err, want)
		}
	}
}

func TestRewriteCompiledFunctionPointerCall(t *testing.T) {
	// The PGAS motivation: indirect calls through a known function
	// pointer disappear under specialization.
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
typedef double (*getter_t)(double*, long);
double direct(double *a, long i) { return a[i]; }
double sum(double *a, getter_t get, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += get(a, i); }
    return s;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := l.FuncAddr("sum")
	direct, _ := l.FuncAddr("direct")
	arr, _ := m.AllocHeap(8 * 8)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.WriteF64Slice(arr, vals); err != nil {
		t.Fatal(err)
	}

	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown) // getter known
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: sum, Args: []uint64{0, direct, 0}})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	got, err := m.CallFloat(res.Addr, []uint64{arr, direct, 8}, nil)
	if err != nil || got != 36 {
		t.Fatalf("rewritten sum = %g, %v", got, err)
	}
	if strings.Contains(res.Result.Listing(), "callr") {
		t.Errorf("indirect call should be inlined:\n%s", res.Result.Listing())
	}
}

func TestRewriteCompiledMakeDynamic(t *testing.T) {
	// Section V.C: the compiler is free to rebuild the iteration space,
	// which may defeat makeDynamic. Verify correctness is preserved
	// regardless of whether unrolling was avoided.
	m := vm.MustNew()
	mdProg, err := minc.CompileAndLink(m, "long makeDynamic(long x) { return x; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := mdProg.FuncAddr("makeDynamic")
	l, err := minc.CompileAndLink(m, `
extern long makeDynamic(long x);
long f(void) {
    long s = 0;
    for (long i = makeDynamic(1); i <= 4; i++) { s += i * 10; }
    return s;
}
`, map[string]uint64{"makeDynamic": md})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("f")
	cfg := brew.NewConfig().MarkDynamic(md)
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	got, err := m.Call(res.Addr)
	if err != nil || got != 100 {
		t.Errorf("f() = %d, %v; want 100", got, err)
	}
}

func TestRewriteWholeSweepNoUnroll(t *testing.T) {
	// E3b precursor: rewrite a full matrix sweep with unrolling disabled;
	// the inner generic apply must still be inlined and specialized.
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, stencilSrc+`
typedef double (*apply_t)(double*, long, struct S*);
double sweep(double *m1, double *m2, long xs, long ys, apply_t ap, struct S *s) {
    double acc = 0.0;
    for (long y = 1; y < ys - 1; y++) {
        for (long x = 1; x < xs - 1; x++) {
            double v = ap(m1 + y*xs + x, xs, s);
            m2[y*xs+x] = v;
            acc += v;
        }
    }
    return acc;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := l.FuncAddr("sweep")
	apply, _ := l.FuncAddr("apply")
	s5, _ := l.GlobalAddr("s5")

	const xs, ys = 10, 6
	m1, _ := m.AllocHeap(xs * ys * 8)
	m2, _ := m.AllocHeap(xs * ys * 8)
	vals := make([]float64, xs*ys)
	for i := range vals {
		vals[i] = float64((i*3)%11) * 0.5
	}
	if err := m.WriteF64Slice(m1, vals); err != nil {
		t.Fatal(err)
	}

	cfg := brew.NewConfig().
		SetParam(3, brew.ParamKnown). // xs
		SetParam(5, brew.ParamKnown). // apply fn ptr
		SetParamPtrToKnown(6, 8+5*24) // stencil struct
	cfg.SetFuncOpts(sweep, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: sweep, Args: []uint64{0, 0, xs, 0, apply, s5}})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	want, err := m.CallFloat(sweep, []uint64{m1, m2, xs, ys, apply, s5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Clear m2 between runs.
	if err := m.WriteF64Slice(m2, make([]float64, xs*ys)); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(res.Addr, []uint64{m1, m2, xs, ys, apply, s5}, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("rewritten sweep = %g, %v; want %g\nblocks=%d", got, err, want, res.Result.Blocks)
	}
	// The indirect call must be gone; the loops must remain loops.
	if strings.Contains(res.Result.Listing(), "callr") {
		t.Errorf("sweep still calls through pointer:\n%s", res.Result.Listing())
	}
	if res.Result.CodeSize > 4096 {
		t.Errorf("sweep appears unrolled: %d bytes of code", res.Result.CodeSize)
	}
}
