package oracle

import (
	"math/rand"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/pgas"
	"repro/internal/vm"
)

// Corpus geometry: small enough that every case builds in milliseconds,
// large enough that the stencil sweep unrolls and the PGAS getters inline.
const (
	corpusXS, corpusYS       = 16, 12
	corpusNodes              = 4
	corpusBS                 = 64
	corpusMe                 = 1
	corpusX2Len              = 16
	corpusGenLo, corpusGenHi = 2, 30
)

// corpusX2Src is the small-function call chain of experiment X2.
const corpusX2Src = `
double leaf(double x, double y) { return x * y + 1.0; }
double mid(double x, double y) { return leaf(x, y) + leaf(y, x); }
double chain(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += mid(a[i], s); }
    return s;
}
`

// CorpusCases returns the rewriter's reference corpus: the paper's three
// stencil kernels under their experiment configurations, both PGAS sums
// (plain getter, prefetch-aware getter over a preloaded window), the X2
// call chain, and generated programs for seeds 2..30. Every Build is
// deterministic, so a rewrite of a case is a pure function of the rewriter:
// the freeze net in internal/brew pins its bytes, listing and report over
// exactly these cases.
func CorpusCases() ([]Case, error) {
	cases, err := StencilCases(corpusXS, corpusYS)
	if err != nil {
		return nil, err
	}
	for _, prefetched := range []bool{false, true} {
		c, err := pgasCase(prefetched)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	x2, err := x2Case(false)
	if err != nil {
		return nil, err
	}
	cases = append(cases, x2)
	for seed := int64(corpusGenLo); seed <= corpusGenHi; seed++ {
		cases = append(cases, Generated(seed))
	}
	return cases, nil
}

// buildPgas builds the PGAS system of the corpus; prefetched preloads the
// next node's partition and selects the prefetch-aware getter.
func buildPgas(prefetched bool) (s *pgas.System, getter uint64, err error) {
	m, err := vm.New()
	if err != nil {
		return nil, 0, err
	}
	if s, err = pgas.New(m, corpusNodes, corpusBS, corpusMe); err != nil {
		return nil, 0, err
	}
	if err = s.Fill(func(i int) float64 { return float64(i%17) * 0.25 }); err != nil {
		return nil, 0, err
	}
	if !prefetched {
		return s, s.PgasGet, nil
	}
	lo := (corpusMe + 1) % corpusNodes * corpusBS
	if err = s.Preload(lo, lo+corpusBS); err != nil {
		return nil, 0, err
	}
	return s, s.PgasGetPref, nil
}

// pgasCase is gsum specialized for the distribution (descriptor and getter
// known, the summed range unknown): the configuration of
// pgas.System.SpecializeSum and SpecializeSumPrefetched.
func pgasCase(prefetched bool) (Case, error) {
	proto, protoGetter, err := buildPgas(prefetched)
	if err != nil {
		return Case{}, err
	}
	name := "pgas-sum"
	if prefetched {
		name = "pgas-sum-prefetched"
	}
	garr, total := proto.Garr, proto.Len()
	return Case{
		Name:  name,
		Float: true,
		Build: func() (*Instance, error) {
			s, getter, err := buildPgas(prefetched)
			if err != nil {
				return nil, err
			}
			cfg := brew.NewConfig().SetParamPtrToKnown(1, pgas.DescriptorSize).SetParam(4, brew.ParamKnown)
			cfg.SetFuncOpts(s.GSum, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
			return &Instance{M: s.M, Fn: s.GSum, Cfg: cfg, Args: []uint64{s.Garr, 0, 0, getter}}, nil
		},
		NewArgs: func(r *rand.Rand) ([]uint64, []float64) {
			from := r.Intn(total)
			to := from + r.Intn(total-from+1)
			return []uint64{garr, uint64(from), uint64(to), protoGetter}, nil
		},
	}, nil
}

// buildX2 compiles the X2 chain and fills its input array.
func buildX2() (m *vm.Machine, fn, leaf, arr uint64, err error) {
	if m, err = vm.New(); err != nil {
		return nil, 0, 0, 0, err
	}
	l, err := minc.CompileAndLink(m, corpusX2Src, nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if arr, err = m.AllocHeap(corpusX2Len * 8); err != nil {
		return nil, 0, 0, 0, err
	}
	for i := 0; i < corpusX2Len; i++ {
		if err = m.Mem.WriteF64(arr+uint64(8*i), float64(i%5)*0.05); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	if leaf, err = l.FuncAddr("leaf"); err != nil {
		return nil, 0, 0, 0, err
	}
	fn, err = l.FuncAddr("chain")
	return m, fn, leaf, arr, err
}

// x2Case is chain() with nothing declared known and the driving loop
// protected from unrolling: what the rewrite buys is the inlined callees.
// keepLeaf leaves the calls to leaf() in place instead.
func x2Case(keepLeaf bool) (Case, error) {
	_, _, _, arr, err := buildX2()
	if err != nil {
		return Case{}, err
	}
	name := "x2-chain"
	if keepLeaf {
		name = "x2-chain+calls"
	}
	return Case{
		Name:  name,
		Float: true,
		Build: func() (*Instance, error) {
			m, fn, leaf, _, err := buildX2()
			if err != nil {
				return nil, err
			}
			cfg := brew.NewConfig()
			cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
			if keepLeaf {
				cfg.SetFuncOpts(leaf, brew.FuncOpts{NoInline: true})
			}
			return &Instance{M: m, Fn: fn, Cfg: cfg}, nil
		},
		NewArgs: func(r *rand.Rand) ([]uint64, []float64) {
			return []uint64{arr, uint64(r.Intn(corpusX2Len + 1))}, nil
		},
	}, nil
}

// KeptCallCases returns guests whose rewrite keeps a call
// (brew.FuncOpts.NoInline): the X2 chain calling leaf() and the stencil
// sweep calling its kernel. The corpus inlines everything, so none of its
// bodies holds a rel32 that leaves it; these do, and moving one to another
// address — what the persist mode forces — has a field to re-aim.
func KeptCallCases() ([]Case, error) {
	x2, err := x2Case(true)
	if err != nil {
		return nil, err
	}
	stencils, err := StencilCases(corpusXS, corpusYS)
	if err != nil {
		return nil, err
	}
	sweep := stencils[2]
	inlined := sweep.Build
	sweep.Name += "+calls"
	sweep.Build = func() (*Instance, error) {
		inst, err := inlined()
		if err != nil {
			return nil, err
		}
		inst.Cfg.SetFuncOpts(inst.Args[4], brew.FuncOpts{NoInline: true}) // the kernel pointer
		return inst, nil
	}
	return []Case{x2, sweep}, nil
}
