// Benchmarks: one per reproduced evaluation entry (DESIGN.md experiment
// index). Each op performs the experiment's measured kernel work on the
// simulated machine; "emcycles/op" reports the emulated cycle count, the
// quantity the reproduction compares against the paper's runtimes.
// Run them with
//
//	go test -bench=. -benchmem
//
// The orderings they illustrate are asserted by the package tests named in
// DESIGN.md's experiment index; `bash bench/run.sh` is the benchmark with
// the paper's Section V ratios.
package repro_test

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/pgas"
	"repro/internal/stencil"
	"repro/internal/vm"
)

const benchXS, benchYS, benchIters = 32, 24, 1

// benchStencil measures one kernel variant through the sweep driver.
func benchStencil(b *testing.B, setup func(w *stencil.Workload) (func() (float64, error), error)) {
	b.Helper()
	w, err := stencil.New(vm.MustNew(), benchXS, benchYS)
	if err != nil {
		b.Fatal(err)
	}
	run, err := setup(w)
	if err != nil {
		b.Fatal(err)
	}
	c0 := w.M.Stats.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.M.Stats.Cycles-c0)/float64(b.N), "emcycles/op")
}

func BenchmarkE1aGeneric(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		return func() (float64, error) { return w.RunSweeps(w.Apply, false, benchIters) }, nil
	})
}

func BenchmarkE1bManual(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		return func() (float64, error) { return w.RunSweeps(w.ApplyManual, false, benchIters) }, nil
	})
}

func BenchmarkE1cRewritten(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		res, err := w.RewriteApply()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) { return w.RunSweeps(res.Addr, false, benchIters) }, nil
	})
}

func BenchmarkE2aGroupedGeneric(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		return func() (float64, error) { return w.RunSweeps(w.ApplyGrouped, true, benchIters) }, nil
	})
}

func BenchmarkE2bGroupedRewritten(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		res, err := w.RewriteApplyGrouped()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) { return w.RunSweeps(res.Addr, true, benchIters) }, nil
	})
}

func BenchmarkE3aManualInlined(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		return func() (float64, error) { return w.RunSweepsInlined(w.SweepInlined, benchIters) }, nil
	})
}

func BenchmarkE3bSweepRewritten(b *testing.B) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		res, err := w.RewriteSweep()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) { return w.RunRewrittenSweeps(res.Addr, benchIters) }, nil
	})
}

// X1: unrolling policy.
func benchX1(b *testing.B, opts brew.FuncOpts) {
	benchStencil(b, func(w *stencil.Workload) (func() (float64, error), error) {
		cfg := brew.NewConfig().
			SetParam(2, brew.ParamKnown).
			SetParamPtrToKnown(3, stencil.StructSSize)
		cfg.SetFuncOpts(w.Apply, opts)
		res, err := brew.Do(w.M, &brew.Request{Config: cfg, Fn: w.Apply, Args: []uint64{0, uint64(w.XS), w.S5}})
		if err != nil {
			return nil, err
		}
		return func() (float64, error) { return w.RunSweeps(res.Addr, false, benchIters) }, nil
	})
}

func BenchmarkX1UnrollingFull(b *testing.B) { benchX1(b, brew.FuncOpts{}) }

func BenchmarkX1UnrollingDisabled(b *testing.B) {
	benchX1(b, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
}

// X2: inlining ablation over a small-function call chain.
const x2Src = `
double leaf(double x, double y) { return x * y + 1.0; }
double mid(double x, double y) { return leaf(x, y) + leaf(y, x); }
double chain(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += mid(a[i], s); }
    return s;
}
`

func benchX2(b *testing.B, rewrite, noInline bool) {
	b.Helper()
	const n = 256
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, x2Src, nil)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := m.AllocHeap(n * 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.Mem.WriteF64(arr+uint64(8*i), float64(i%5)*0.5); err != nil {
			b.Fatal(err)
		}
	}
	fn, _ := l.FuncAddr("chain")
	entry := fn
	if rewrite {
		cfg := brew.NewConfig()
		cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
		if noInline {
			mid, _ := l.FuncAddr("mid")
			leaf, _ := l.FuncAddr("leaf")
			cfg.SetFuncOpts(mid, brew.FuncOpts{NoInline: true})
			cfg.SetFuncOpts(leaf, brew.FuncOpts{NoInline: true})
		}
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
		if err != nil {
			b.Fatal(err)
		}
		entry = res.Addr
	}
	c0 := m.Stats.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFloat(entry, []uint64{arr, n}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats.Cycles-c0)/float64(b.N), "emcycles/op")
}

func BenchmarkX2InliningOriginal(b *testing.B)  { benchX2(b, false, false) }
func BenchmarkX2InliningCallsKept(b *testing.B) { benchX2(b, true, true) }
func BenchmarkX2InliningInlined(b *testing.B)   { benchX2(b, true, false) }

// X3: rewriting cost and code size under different variant thresholds.
func benchX3(b *testing.B, threshold int) {
	b.Helper()
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long f(long n) {
    long s = 0;
    long k = 0;
    for (long i = 0; i < n; i++) { k = k + 3; s += k; }
    return s;
}
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := l.FuncAddr("f")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := brew.NewConfig()
		cfg.MaxVariantsPerAddr = threshold
		cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true})
		if _, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX3VariantsThreshold2(b *testing.B)  { benchX3(b, 2) }
func BenchmarkX3VariantsThreshold16(b *testing.B) { benchX3(b, 16) }

// X4: guarded specialization hot/cold dispatch.
func benchX4(b *testing.B, hot bool) {
	b.Helper()
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long poly(long x, long k) {
    long r = 1;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	poly, _ := l.FuncAddr("poly")
	g, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: poly,
		Guards: []brew.ParamGuard{{Param: 2, Value: 12}}})
	if err != nil {
		b.Fatal(err)
	}
	k := uint64(12)
	if !hot {
		k = 13
	}
	c0 := m.Stats.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call(g.Addr, uint64(i%64), k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats.Cycles-c0)/float64(b.N), "emcycles/op")
}

func BenchmarkX4GuardedHot(b *testing.B)  { benchX4(b, true) }
func BenchmarkX4GuardedCold(b *testing.B) { benchX4(b, false) }

// X5: PGAS reductions.
func benchX5(b *testing.B, remote, specialize bool) {
	b.Helper()
	const nodes, bs, me = 4, 256, 1
	s, err := pgas.New(vm.MustNew(), nodes, bs, me)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Fill(func(i int) float64 { return float64(i % 7) }); err != nil {
		b.Fatal(err)
	}
	lo, hi := me*bs, (me+1)*bs
	getter := s.PgasGet
	entry := s.GSum
	if remote {
		lo, hi = (me+1)*bs, (me+2)*bs
	}
	if specialize {
		if remote {
			if err := s.Preload(lo, hi); err != nil {
				b.Fatal(err)
			}
			res, err := s.SpecializeSumPrefetched()
			if err != nil {
				b.Fatal(err)
			}
			entry, getter = res.Addr, s.PgasGetPref
		} else {
			res, err := s.SpecializeSum()
			if err != nil {
				b.Fatal(err)
			}
			entry = res.Addr
		}
	}
	c0 := s.M.Stats.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SumWith(entry, getter, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.M.Stats.Cycles-c0)/float64(b.N), "emcycles/op")
}

func BenchmarkX5PgasLocalGeneric(b *testing.B)     { benchX5(b, false, false) }
func BenchmarkX5PgasLocalSpecialized(b *testing.B) { benchX5(b, false, true) }
func BenchmarkX5PgasRemoteGeneric(b *testing.B)    { benchX5(b, true, false) }
func BenchmarkX5PgasRemotePreloaded(b *testing.B)  { benchX5(b, true, true) }

// BenchmarkRewriteApply measures the rewriter itself: the cost of
// generating one specialized stencil kernel (trace + optimize + encode).
func BenchmarkRewriteApply(b *testing.B) {
	w, err := stencil.New(vm.MustNew(), benchXS, benchYS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RewriteApply(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulator measures raw emulation speed (host ns per emulated
// instruction) on the generic stencil.
func BenchmarkEmulator(b *testing.B) {
	w, err := stencil.New(vm.MustNew(), benchXS, benchYS)
	if err != nil {
		b.Fatal(err)
	}
	i0 := w.M.Stats.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunSweeps(w.Apply, false, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.M.Stats.Instructions-i0)/float64(b.N), "eminstr/op")
}
