package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// TestGeneratedProgramsNoDivergence is the oracle's headline property: a
// sweep of random compiled programs under random configurations finds no
// equivalence violation.
func TestGeneratedProgramsNoDivergence(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	refused := 0
	for seed := 0; seed < seeds; seed++ {
		res, err := Run(Generated(int64(seed)), int64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.RewriteErr != nil {
			refused++
			continue
		}
		if res.Divergence != nil {
			t.Fatalf("seed %d:\n%s", seed, res.Divergence.Format())
		}
	}
	if refused > seeds/2 {
		t.Fatalf("rewriter refused %d/%d generated programs — generator out of tune", refused, seeds)
	}
}

// TestStencilCasesNoDivergence checks the paper's kernels under their
// experiment configurations (E1c, E2b, E3b).
func TestStencilCasesNoDivergence(t *testing.T) {
	cases, err := StencilCases(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		res, err := Run(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res.RewriteErr != nil {
			t.Fatalf("%s: rewrite refused: %v", c.Name, res.RewriteErr)
		}
		if res.Divergence != nil {
			t.Fatalf("%s:\n%s", c.Name, res.Divergence.Format())
		}
	}
}

// violatedCase builds a case that deliberately breaks the known-parameter
// contract: parameter 1 is declared known with value kval at rewrite time,
// but argument vectors pass a different value. The specialized code bakes
// in kval, so the oracle must flag the divergence — this is the oracle's
// own smoke detector.
func violatedCase(t *testing.T, src string, kval, badval uint64, float bool) Case {
	t.Helper()
	build := func() (*Instance, error) {
		m, err := vm.New()
		if err != nil {
			return nil, err
		}
		l, err := minc.CompileAndLink(m, src, nil)
		if err != nil {
			return nil, err
		}
		fn, err := l.FuncAddr("f")
		if err != nil {
			return nil, err
		}
		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		return &Instance{M: m, Fn: fn, Cfg: cfg, Args: []uint64{kval}}, nil
	}
	return Case{
		Name:  "contract-violation",
		Float: float,
		Build: build,
		NewArgs: func(rr *rand.Rand) ([]uint64, []float64) {
			return []uint64{badval}, nil
		},
	}
}

func TestOracleDetectsReturnDivergence(t *testing.T) {
	c := violatedCase(t, `long f(long a) { return a * 3 + 1; }`, 7, 1000, false)
	res, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil {
		t.Fatal("oracle missed a forced return divergence")
	}
	if res.Divergence.Kind != "return" {
		t.Fatalf("kind = %q, want return", res.Divergence.Kind)
	}
	// The one unknown-free vector cannot be minimized below itself, but the
	// report must carry the argument vector and disassembly context.
	f := res.Divergence.Format()
	for _, want := range []string{"DIVERGENCE", "original code", "rewritten blocks"} {
		if !strings.Contains(f, want) {
			t.Errorf("report lacks %q:\n%s", want, f)
		}
	}
}

func TestOracleDetectsStoreDivergence(t *testing.T) {
	c := violatedCase(t, `
long G[2];
long f(long a) { G[0] = a + 5; return 0; }`, 3, 9, false)
	res, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil {
		t.Fatal("oracle missed a forced store divergence")
	}
	if res.Divergence.Kind != "store" && res.Divergence.Kind != "memory" {
		t.Fatalf("kind = %q, want store or memory", res.Divergence.Kind)
	}
}

// TestOracleMinimizesUnknownArgs forces a divergence that depends only on
// one unknown parameter crossing a threshold and checks the minimizer
// shrinks the other unknown to a trivial value.
func TestOracleMinimizesUnknownArgs(t *testing.T) {
	// Param 1 known (violated), params 2 and 3 unknown; the divergence is
	// independent of b and c, so minimization should drive them to 0.
	src := `long f(long a, long b, long c) { return a * 2 + (b - b) + (c - c); }`
	build := func() (*Instance, error) {
		m, err := vm.New()
		if err != nil {
			return nil, err
		}
		l, err := minc.CompileAndLink(m, src, nil)
		if err != nil {
			return nil, err
		}
		fn, err := l.FuncAddr("f")
		if err != nil {
			return nil, err
		}
		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		return &Instance{M: m, Fn: fn, Cfg: cfg, Args: []uint64{5}}, nil
	}
	c := Case{
		Name:  "minimize",
		Build: build,
		NewArgs: func(rr *rand.Rand) ([]uint64, []float64) {
			return []uint64{77, 123456, 987654}, nil
		},
	}
	res, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil {
		t.Fatal("expected divergence")
	}
	min := res.Divergence.MinArgs
	if min == nil {
		t.Fatal("minimizer produced nothing")
	}
	if min[0] != 77 {
		t.Errorf("minimizer changed the known parameter: %v", min)
	}
	if min[1] != 0 || min[2] != 0 {
		t.Errorf("unknown parameters not minimized: %v", min)
	}
}

// TestStoreJournalExcludesStack: the oracle must ignore frame traffic —
// a function whose only stores are spills compares store-clean even
// though the rewritten frame differs.
func TestStoreJournalExcludesStack(t *testing.T) {
	// Deep expression pressure forces spills in minc output.
	src := `long f(long a, long b, long c, long d) {
    long x = (a*3 + b*5) * (c*7 + d*11) + (a*13 + c*17) * (b*19 + d*23);
    return x + (a+b)*(c+d);
}`
	build := func() (*Instance, error) {
		m, err := vm.New()
		if err != nil {
			return nil, err
		}
		l, err := minc.CompileAndLink(m, src, nil)
		if err != nil {
			return nil, err
		}
		fn, err := l.FuncAddr("f")
		if err != nil {
			return nil, err
		}
		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		return &Instance{M: m, Fn: fn, Cfg: cfg, Args: []uint64{3}}, nil
	}
	c := Case{
		Name:  "stack-filter",
		Build: build,
		NewArgs: func(rr *rand.Rand) ([]uint64, []float64) {
			return []uint64{3, rr.Uint64() >> 40, rr.Uint64() >> 40, rr.Uint64() >> 40}, nil
		},
	}
	res, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RewriteErr != nil {
		t.Fatalf("rewrite refused: %v", res.RewriteErr)
	}
	if res.Divergence != nil {
		t.Fatalf("false divergence from stack traffic:\n%s", res.Divergence.Format())
	}
}

// TestGenProgramDeterministic: the same seed must render the same source —
// Build determinism depends on it.
func TestGenProgramDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, sa := GenProgram(rand.New(rand.NewSource(seed)))
		b, sb := GenProgram(rand.New(rand.NewSource(seed)))
		if a != b || sa != sb {
			t.Fatalf("seed %d: nondeterministic generator", seed)
		}
	}
}

// TestGeneratedProgramsCompile: every program in a seed sweep must be
// valid minc — a compile failure is a generator bug, not a refusal.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		src, _ := GenProgram(rand.New(rand.NewSource(seed)))
		m := vm.MustNew()
		if _, err := minc.CompileAndLink(m, src, nil); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestCorpusCasesNoDivergence runs the corpus cases that have no test of
// their own (both PGAS sums, the X2 chain) through the oracle: their
// argument generators must be consistent with their declarations.
func TestCorpusCasesNoDivergence(t *testing.T) {
	cases, err := CorpusCases()
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 + corpusGenHi - corpusGenLo + 1; len(cases) != want {
		t.Fatalf("corpus has %d cases, want %d", len(cases), want)
	}
	for _, c := range cases[3:6] {
		res, err := Run(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res.RewriteErr != nil {
			t.Fatalf("%s: rewrite refused: %v", c.Name, res.RewriteErr)
		}
		if res.Divergence != nil {
			t.Fatalf("%s:\n%s", c.Name, res.Divergence.Format())
		}
	}
}
