package brew_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/brew"
	"repro/internal/vm"
)

// The rewriter's central invariant, checked on randomly generated
// programs: for any function that rewrites successfully and any arguments
// consistent with the declared known values, the rewritten function
// computes exactly what the original computes.
//
// Programs are straight-line ALU code over r1..r5 with forward-only
// conditional branches (guaranteeing termination) and a result that mixes
// all registers into r0.

type progGen struct {
	r  *rand.Rand
	sb strings.Builder
	n  int // emitted ops
}

func genProgram(r *rand.Rand) string {
	g := &progGen{r: r}
	g.sb.WriteString("f:\n")
	nOps := 6 + r.Intn(20)
	pendingLabels := []string{}
	for i := 0; i < nOps; i++ {
		// Close a pending branch target occasionally.
		if len(pendingLabels) > 0 && r.Intn(3) == 0 {
			g.sb.WriteString(pendingLabels[0] + ":\n")
			pendingLabels = pendingLabels[1:]
		}
		g.op(i)
		// Open a forward branch occasionally.
		if r.Intn(6) == 0 && len(pendingLabels) < 2 {
			lbl := fmt.Sprintf("l%d_%d", i, r.Intn(1000))
			cc := []string{"eq", "ne", "lt", "ge", "b", "ae"}[r.Intn(6)]
			fmt.Fprintf(&g.sb, "    cmp r%d, r%d\n", 1+r.Intn(5), 1+r.Intn(5))
			fmt.Fprintf(&g.sb, "    j%s %s\n", cc, lbl)
			pendingLabels = append(pendingLabels, lbl)
		}
	}
	for _, l := range pendingLabels {
		g.sb.WriteString(l + ":\n")
	}
	// Fold every register into the result.
	g.sb.WriteString("    mov r0, r1\n")
	for i := 2; i <= 5; i++ {
		fmt.Fprintf(&g.sb, "    xor r0, r%d\n", i)
	}
	g.sb.WriteString("    ret\n")
	return g.sb.String()
}

func (g *progGen) op(i int) {
	r := g.r
	dst := 1 + r.Intn(5)
	src := 1 + r.Intn(5)
	switch r.Intn(12) {
	case 0:
		fmt.Fprintf(&g.sb, "    mov r%d, r%d\n", dst, src)
	case 1:
		fmt.Fprintf(&g.sb, "    movi r%d, %d\n", dst, r.Int63n(1<<20)-1<<19)
	case 2:
		fmt.Fprintf(&g.sb, "    add r%d, r%d\n", dst, src)
	case 3:
		fmt.Fprintf(&g.sb, "    sub r%d, r%d\n", dst, src)
	case 4:
		fmt.Fprintf(&g.sb, "    imul r%d, r%d\n", dst, src)
	case 5:
		fmt.Fprintf(&g.sb, "    and r%d, r%d\n", dst, src)
	case 6:
		fmt.Fprintf(&g.sb, "    or r%d, r%d\n", dst, src)
	case 7:
		fmt.Fprintf(&g.sb, "    xor r%d, r%d\n", dst, src)
	case 8:
		fmt.Fprintf(&g.sb, "    addi r%d, %d\n", dst, r.Int63n(1<<16)-1<<15)
	case 9:
		fmt.Fprintf(&g.sb, "    shli r%d, %d\n", dst, r.Intn(8))
	case 10:
		fmt.Fprintf(&g.sb, "    sari r%d, %d\n", dst, r.Intn(8))
	case 11:
		fmt.Fprintf(&g.sb, "    neg r%d\n", dst)
	}
}

func TestFuzzEquivalence(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		m := vm.MustNew()
		im, err := asm.Load(m, src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		fn := im.MustEntry("f")

		// Random subset of parameters declared known.
		cfg := brew.NewConfig()
		fixed := make([]uint64, 5)
		known := make([]bool, 5)
		for p := 0; p < 5; p++ {
			if r.Intn(3) == 0 {
				known[p] = true
				fixed[p] = r.Uint64() >> uint(r.Intn(60))
				cfg.SetParam(p+1, brew.ParamKnown)
			}
		}
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: fixed})
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v\n%s", seed, err, src)
		}

		for trial := 0; trial < 20; trial++ {
			args := make([]uint64, 5)
			for p := 0; p < 5; p++ {
				if known[p] {
					args[p] = fixed[p]
				} else {
					args[p] = r.Uint64() >> uint(r.Intn(60))
				}
			}
			want, err1 := m.Call(fn, args...)
			got, err2 := m.Call(res.Addr, args...)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: exec: %v / %v\n%s", seed, err1, err2, src)
			}
			if got != want {
				t.Fatalf("seed %d trial %d: original %d, rewritten %d\nargs=%v known=%v\n%s\nlisting:\n%s",
					seed, trial, want, got, args, known, src, res.Result.Listing())
			}
		}
	}
}

// TestFuzzEquivalenceUnrollModes repeats the fuzz with the unrolling
// controls active, exercising variant thresholds and migrations.
func TestFuzzEquivalenceUnrollModes(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(1_000_000 + seed)))
		src := genProgram(r)
		m := vm.MustNew()
		im, err := asm.Load(m, src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fn := im.MustEntry("f")
		cfg := brew.NewConfig()
		cfg.MaxVariantsPerAddr = 1 + r.Intn(4)
		cfg.SetFuncOpts(fn, brew.FuncOpts{
			BranchesUnknown: r.Intn(2) == 0,
			ResultsUnknown:  r.Intn(2) == 0,
		})
		var fixed []uint64
		if r.Intn(2) == 0 {
			cfg.SetParam(1, brew.ParamKnown)
			fixed = []uint64{r.Uint64() >> 40}
		}
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: fixed})
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v\n%s", seed, err, src)
		}
		for trial := 0; trial < 10; trial++ {
			args := make([]uint64, 5)
			for p := range args {
				args[p] = r.Uint64() >> uint(r.Intn(60))
			}
			if len(fixed) > 0 {
				args[0] = fixed[0]
			}
			want, err1 := m.Call(fn, args...)
			got, err2 := m.Call(res.Addr, args...)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: exec: %v / %v", seed, err1, err2)
			}
			if got != want {
				t.Fatalf("seed %d trial %d: original %d, rewritten %d\n%s\nlisting:\n%s",
					seed, trial, want, got, src, res.Result.Listing())
			}
		}
	}
}

// TestFuzzMemoryEquivalence exercises the memory overlay: random programs
// with loads and stores into a scratch buffer, optionally declared known.
// Memory is snapshotted and compared after original and rewritten runs.
func TestFuzzMemoryEquivalence(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	const bufWords = 8
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(9_000_000 + seed)))
		var sb strings.Builder
		sb.WriteString("f:\n") // r1 = buffer base (param), r2..r4 scratch
		n := 5 + r.Intn(14)
		for i := 0; i < n; i++ {
			d := 2 + r.Intn(3)
			off := 8 * r.Intn(bufWords)
			switch r.Intn(6) {
			case 0:
				fmt.Fprintf(&sb, "    load r%d, [r1+%d]\n", d, off)
			case 1:
				fmt.Fprintf(&sb, "    store [r1+%d], r%d\n", off, d)
			case 2:
				fmt.Fprintf(&sb, "    movi r%d, %d\n", d, r.Intn(1000))
			case 3:
				fmt.Fprintf(&sb, "    add r%d, r%d\n", d, 2+r.Intn(3))
			case 4:
				fmt.Fprintf(&sb, "    imuli r%d, %d\n", d, 1+r.Intn(5))
			case 5:
				fmt.Fprintf(&sb, "    storeb [r1+%d], r%d\n", off, d)
			}
		}
		sb.WriteString("    mov r0, r2\n    add r0, r3\n    add r0, r4\n    ret\n")
		src := sb.String()

		m := vm.MustNew()
		im, err := asm.Load(m, src)
		if err != nil {
			t.Fatal(err)
		}
		fn := im.MustEntry("f")
		buf, err := m.AllocHeap(bufWords * 8)
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]int64, bufWords)
		for i := range initial {
			initial[i] = int64(r.Intn(500))
		}
		reset := func() {
			if err := m.WriteI64Slice(buf, initial); err != nil {
				t.Fatal(err)
			}
		}

		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		if r.Intn(2) == 0 {
			// Declaring the buffer known is only sound when its contents
			// are what they were at rewrite time; reset() restores that
			// before every run.
			cfg.SetParamPtrToKnown(1, bufWords*8)
		}
		reset()
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{buf}})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}

		snapshot := func() []float64 {
			out := make([]float64, bufWords)
			for i := range out {
				v, _ := m.Mem.Read64(buf + uint64(8*i))
				out[i] = float64(int64(v))
			}
			return out
		}
		for trial := 0; trial < 6; trial++ {
			// r2..r4 are live inputs of the generated program.
			a2, a3, a4 := uint64(r.Intn(900)), uint64(r.Intn(900)), uint64(r.Intn(900))
			reset()
			want, err1 := m.Call(fn, buf, a2, a3, a4)
			memWant := snapshot()
			reset()
			got, err2 := m.Call(res.Addr, buf, a2, a3, a4)
			memGot := snapshot()
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v / %v", seed, err1, err2)
			}
			if got != want {
				t.Fatalf("seed %d: result %d != %d\n%s\n%s", seed, got, want, src, res.Result.Listing())
			}
			for i := range memWant {
				if memWant[i] != memGot[i] {
					t.Fatalf("seed %d: buf[%d] %g != %g\n%s\n%s", seed, i, memGot[i], memWant[i], src, res.Result.Listing())
				}
			}
		}
	}
}
