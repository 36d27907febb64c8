package brew_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// load builds a machine with the given assembly program.
func load(t *testing.T, src string) (*vm.Machine, *asm.Image) {
	t.Helper()
	m := vm.MustNew()
	im, err := asm.Load(m, src)
	if err != nil {
		t.Fatal(err)
	}
	return m, im
}

func mustRewrite(t *testing.T, m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64, fargs []float64) *brew.Result {
	t.Helper()
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: args, FArgs: fargs})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return out.Result
}

func TestSpecializeAddBothKnown(t *testing.T) {
	m, im := load(t, `
add2:
    mov r0, r1
    add r0, r2
    ret
`)
	fn := im.MustEntry("add2")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown).SetParam(2, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, []uint64{40, 2}, nil)
	got, err := m.Call(res.Addr, 40, 2)
	if err != nil || got != 42 {
		t.Fatalf("rewritten(40,2) = %d, %v", got, err)
	}
	// Fully known: the result is precomputed (paper: "Any computation
	// using values specified as being known can be removed and
	// pre-computed").
	if !strings.Contains(res.Listing(), "movi r0, 42") {
		t.Errorf("expected constant result, listing:\n%s", res.Listing())
	}
	// Figure 3 semantics: the known parameter is ignored at call time.
	got, err = m.Call(res.Addr, 999, 999)
	if err != nil || got != 42 {
		t.Errorf("rewritten(999,999) = %d, %v; want 42", got, err)
	}
}

func TestSpecializeAddOneKnown(t *testing.T) {
	m, im := load(t, `
add2:
    mov r0, r1
    add r0, r2
    ret
`)
	fn := im.MustEntry("add2")
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, []uint64{0, 5}, nil)
	for _, a := range []uint64{0, 1, 100, ^uint64(0)} {
		got, err := m.Call(res.Addr, a)
		if err != nil || got != a+5 {
			t.Fatalf("rewritten(%d) = %d, %v; want %d", a, got, err, a+5)
		}
	}
	// The constant should be folded into an immediate form.
	if !strings.Contains(res.Listing(), "addi r0, 5") {
		t.Errorf("expected addi fold, listing:\n%s", res.Listing())
	}
}

func TestFullUnrollKnownLoop(t *testing.T) {
	m, im := load(t, `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, []uint64{10}, nil)
	got, err := m.Call(res.Addr, 10)
	if err != nil || got != 55 {
		t.Fatalf("rewritten sum(10) = %d, %v", got, err)
	}
	// Complete constant propagation through the unrolled loop.
	if !strings.Contains(res.Listing(), "movi r0, 55") {
		t.Errorf("expected full evaluation, listing:\n%s", res.Listing())
	}
}

func TestUnknownLoopStaysALoop(t *testing.T) {
	m, im := load(t, `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`)
	fn := im.MustEntry("sum")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	for _, n := range []uint64{1, 2, 7, 100} {
		got, err := m.Call(res.Addr, n)
		if err != nil || got != n*(n+1)/2 {
			t.Fatalf("rewritten sum(%d) = %d, %v", n, got, err)
		}
	}
	if res.Blocks < 2 {
		t.Errorf("expected a real loop structure, got %d blocks:\n%s", res.Blocks, res.Listing())
	}
}

func TestKnownMemoryFolds(t *testing.T) {
	m, im := load(t, `
getcoef:
    movi r2, tbl
    load r0, [r2+8]
    ret
.data
tbl: .quad 11, 22, 33
`)
	fn := im.MustEntry("getcoef")
	tbl := im.MustEntry("tbl")
	cfg := brew.NewConfig().SetMemRange(tbl, tbl+24)
	res := mustRewrite(t, m, cfg, fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 22 {
		t.Fatalf("rewritten = %d, %v; want 22", got, err)
	}
	if !strings.Contains(res.Listing(), "movi r0, 22") {
		t.Errorf("expected folded load, listing:\n%s", res.Listing())
	}
}

func TestPtrToKnownParameter(t *testing.T) {
	// f(p) = p[0] + p[1], pointer marked PtrToKnown (paper Figure 3/5).
	m, im := load(t, `
f:
    load r0, [r1]
    load r2, [r1+8]
    add  r0, r2
    ret
.data
tbl: .quad 30, 12
`)
	fn := im.MustEntry("f")
	tbl := im.MustEntry("tbl")
	cfg := brew.NewConfig().SetParamPtrToKnown(1, 16)
	res := mustRewrite(t, m, cfg, fn, []uint64{tbl}, nil)
	got, err := m.Call(res.Addr, tbl)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v; want 42", got, err)
	}
	if !strings.Contains(res.Listing(), "movi r0, 42") {
		t.Errorf("expected full fold, listing:\n%s", res.Listing())
	}
}

func TestInliningRemovesCall(t *testing.T) {
	m, im := load(t, `
caller:
    movi r1, 20
    movi r2, 22
    call addfn
    ret
addfn:
    mov r0, r1
    add r0, r2
    ret
`)
	fn := im.MustEntry("caller")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	if strings.Contains(res.Listing(), "call") {
		t.Errorf("call should be inlined away:\n%s", res.Listing())
	}
}

func TestNoInlineKeepsCall(t *testing.T) {
	m, im := load(t, `
caller:
    movi r1, 20
    movi r2, 22
    call addfn
    ret
addfn:
    mov r0, r1
    add r0, r2
    ret
`)
	fn := im.MustEntry("caller")
	addfn := im.MustEntry("addfn")
	cfg := brew.NewConfig().SetFuncOpts(addfn, brew.FuncOpts{NoInline: true})
	res := mustRewrite(t, m, cfg, fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	if !strings.Contains(res.Listing(), "call") {
		t.Errorf("call should be kept:\n%s", res.Listing())
	}
}

func TestInlineWithUnknownArgs(t *testing.T) {
	m, im := load(t, `
caller:
    call double
    addi r0, 1
    ret
double:
    mov r0, r1
    add r0, r0
    ret
`)
	fn := im.MustEntry("caller")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	for _, a := range []uint64{0, 3, 21} {
		got, err := m.Call(res.Addr, a)
		if err != nil || got != 2*a+1 {
			t.Fatalf("rewritten(%d) = %d, %v", a, got, err)
		}
	}
	if strings.Contains(res.Listing(), "call") {
		t.Errorf("call should be inlined:\n%s", res.Listing())
	}
}

func TestBranchesUnknownAvoidsUnrolling(t *testing.T) {
	src := `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`
	m, im := load(t, src)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	res := mustRewrite(t, m, cfg, fn, []uint64{100}, nil)
	got, err := m.Call(res.Addr, 100)
	if err != nil || got != 5050 {
		t.Fatalf("rewritten sum = %d, %v", got, err)
	}
	// The loop must not be 100x unrolled.
	if n := strings.Count(res.Listing(), "add r0"); n > 5 {
		t.Errorf("loop appears unrolled %d times:\n%s", n, res.Listing())
	}
}

func TestResultsUnknownStillSpecializesCallees(t *testing.T) {
	// Paper V.C: ResultsUnknown "does not remove chances for
	// specialization for nested called functions which get inlined".
	m, im := load(t, `
outer:
    movi r1, 6
    movi r2, 7
    call mul
    ret
mul:
    mov  r0, r1
    imul r0, r2
    ret
`)
	fn := im.MustEntry("outer")
	cfg := brew.NewConfig()
	cfg.SetFuncOpts(fn, brew.FuncOpts{ResultsUnknown: true})
	res := mustRewrite(t, m, cfg, fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	// The callee had default options, so 6*7 folds inside it.
	if !strings.Contains(res.Listing(), "movi r0, 42") {
		t.Errorf("callee not specialized:\n%s", res.Listing())
	}
}

func TestMakeDynamic(t *testing.T) {
	m, im := load(t, `
f:
    movi r1, 5
    call makedyn
    mov  r1, r0
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
makedyn:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("f")
	md := im.MustEntry("makedyn")
	cfg := brew.NewConfig().MarkDynamic(md)
	res := mustRewrite(t, m, cfg, fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 15 {
		t.Fatalf("rewritten = %d, %v; want 15", got, err)
	}
	// The value became dynamic, so the loop is NOT unrolled into a
	// constant.
	if strings.Contains(res.Listing(), "movi r0, 15") {
		t.Errorf("makeDynamic failed to stop constant propagation:\n%s", res.Listing())
	}
}

func TestStackLocalsAndCalleeSaved(t *testing.T) {
	// Uses frame slots and callee-saved registers; rewriting with an
	// unknown parameter must preserve behavior exactly.
	m, im := load(t, `
f:
    push r10
    subi sp, 16
    store [sp], r1        ; local a = x
    store [sp+8], r1      ; local b = x
    load  r10, [sp]
    load  r2, [sp+8]
    add   r10, r2
    mov   r0, r10
    addi  sp, 16
    pop   r10
    ret
`)
	fn := im.MustEntry("f")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	for _, a := range []uint64{0, 7, 1 << 40} {
		got, err := m.Call(res.Addr, a)
		if err != nil || got != 2*a {
			t.Fatalf("rewritten(%d) = %d, %v", a, got, err)
		}
	}
}

func TestStackSlotFolding(t *testing.T) {
	// A known value round-trips through the stack and keeps specializing.
	m, im := load(t, `
f:
    subi sp, 8
    store [sp], r1
    load  r2, [sp]
    mov   r0, r2
    imuli r0, 3
    addi  sp, 8
    ret
`)
	fn := im.MustEntry("f")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, []uint64{14}, nil)
	got, err := m.Call(res.Addr, 14)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	if !strings.Contains(res.Listing(), "movi r0, 42") {
		t.Errorf("stack slot did not fold:\n%s", res.Listing())
	}
}

func TestFloatSpecialization(t *testing.T) {
	m, im := load(t, `
f:
    fmul f1, f2
    fmov f0, f1
    ret
`)
	fn := im.MustEntry("f")
	cfg := brew.NewConfig().SetFloatParam(2, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, nil, []float64{0, 2.5})
	got, err := m.CallFloat(res.Addr, nil, []float64{4.0, 2.5})
	if err != nil || got != 10.0 {
		t.Fatalf("rewritten = %g, %v", got, err)
	}
}

func TestDiamondControlFlow(t *testing.T) {
	// if (a < b) r0 = a else r0 = b — with both unknown.
	m, im := load(t, `
min:
    cmp r1, r2
    jlt lo
    mov r0, r2
    ret
lo:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("min")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	cases := [][3]uint64{{1, 2, 1}, {5, 3, 3}, {4, 4, 4}}
	for _, c := range cases {
		got, err := m.Call(res.Addr, c[0], c[1])
		if err != nil || got != c[2] {
			t.Fatalf("min(%d,%d) = %d, %v", c[0], c[1], got, err)
		}
	}
}

func TestIndirectJumpFails(t *testing.T) {
	m, im := load(t, `
f:
    jmpr r1
`)
	_, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: im.MustEntry("f")})
	if !errors.Is(err, brew.ErrIndirectJump) {
		t.Errorf("err = %v, want ErrIndirectJump", err)
	}
}

func TestIndirectCallKnownTargetInlines(t *testing.T) {
	m, im := load(t, `
f:
    movi r3, target
    movi r1, 21
    callr r3
    ret
target:
    mov r0, r1
    add r0, r0
    ret
`)
	fn := im.MustEntry("f")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	got, err := m.Call(res.Addr)
	if err != nil || got != 42 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	if strings.Contains(res.Listing(), "call") {
		t.Errorf("known indirect call should inline:\n%s", res.Listing())
	}
}

func TestIndirectCallUnknownTargetKept(t *testing.T) {
	m, im := load(t, `
f:
    callr r1
    ret
helper:
    movi r0, 9
    ret
`)
	fn := im.MustEntry("f")
	res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
	got, err := m.Call(res.Addr, im.MustEntry("helper"))
	if err != nil || got != 9 {
		t.Fatalf("rewritten = %d, %v", got, err)
	}
	if !strings.Contains(res.Listing(), "callr") {
		t.Errorf("unknown indirect call should be kept:\n%s", res.Listing())
	}
}

func TestRecursionWithUnknownArgFails(t *testing.T) {
	m, im := load(t, `
fib:
    cmpi r1, 2
    jlt base
    push r10
    push r11
    mov  r10, r1
    subi r1, 1
    call fib
    mov  r11, r0
    mov  r1, r10
    subi r1, 2
    call fib
    add  r0, r11
    pop  r11
    pop  r10
    ret
base:
    mov r0, r1
    ret
`)
	cfg := brew.NewConfig()
	cfg.MaxInlineDepth = 8
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: im.MustEntry("fib")})
	if !errors.Is(err, brew.ErrInlineDepth) {
		t.Errorf("err = %v, want ErrInlineDepth", err)
	}
}

func TestRecursionWithKnownArgUnrolls(t *testing.T) {
	m, im := load(t, `
fib:
    cmpi r1, 2
    jlt base
    push r10
    push r11
    mov  r10, r1
    subi r1, 1
    call fib
    mov  r11, r0
    mov  r1, r10
    subi r1, 2
    call fib
    add  r0, r11
    pop  r11
    pop  r10
    ret
base:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("fib")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	res := mustRewrite(t, m, cfg, fn, []uint64{10}, nil)
	got, err := m.Call(res.Addr, 10)
	if err != nil || got != 55 {
		t.Fatalf("fib(10) = %d, %v", got, err)
	}
}

func TestBadConfigRejected(t *testing.T) {
	m := vm.MustNew()
	var zero brew.Config
	if _, err := brew.Do(m, &brew.Request{Config: &zero, Fn: 0x1000}); !errors.Is(err, brew.ErrBadConfig) {
		t.Errorf("zero config: %v", err)
	}
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	if _, err := brew.Do(m, &brew.Request{Config: cfg, Fn: 0x1000}); !errors.Is(err, brew.ErrBadConfig) {
		t.Errorf("missing arg: %v", err)
	}
}

func TestUndecodableCodeFails(t *testing.T) {
	m := vm.MustNew()
	addr, err := m.LoadCode([]byte{0xFE, 0xFE, 0xFE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: addr}); !errors.Is(err, brew.ErrBadCode) {
		t.Errorf("err = %v, want ErrBadCode", err)
	}
}

func TestBlockLimit(t *testing.T) {
	m, im := load(t, `
f:
    cmp r1, r2
    jlt a
    mov r0, r2
    ret
a:
    mov r0, r1
    ret
`)
	cfg := brew.NewConfig()
	cfg.MaxBlocks = 1
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: im.MustEntry("f")})
	if !errors.Is(err, brew.ErrTooManyBlocks) {
		t.Errorf("err = %v, want ErrTooManyBlocks", err)
	}
}

func TestOriginalStaysUsableAfterFailure(t *testing.T) {
	m, im := load(t, `
f:
    jmpr r1
g:
    movi r0, 5
    ret
`)
	if _, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: im.MustEntry("f")}); err == nil {
		t.Fatal("expected failure")
	}
	// The original and unrelated functions still run.
	got, err := m.Call(im.MustEntry("g"))
	if err != nil || got != 5 {
		t.Errorf("g() = %d, %v after failed rewrite", got, err)
	}
}

func TestHandlersInjected(t *testing.T) {
	m, im := load(t, `
f:
    mov r0, r1
    addi r0, 1
    ret
entryh:
    movi r9, counter       ; handlers may clobber nothing visible; they
    load r8, [r9]          ; use caller-saved scratch regs which f does
    addi r8, 1              ; not rely on after the call point
    store [r9], r8
    ret
.data
counter: .quad 0
`)
	// NOTE: the entry handler contract requires preserving registers; this
	// test handler clobbers r8/r9 which the traced function never reads
	// before writing, so the contract holds for this pairing.
	fn := im.MustEntry("f")
	cfg := brew.NewConfig()
	cfg.EntryHandler = im.MustEntry("entryh")
	res := mustRewrite(t, m, cfg, fn, nil, nil)
	counter := im.MustEntry("counter")
	for i := uint64(1); i <= 3; i++ {
		got, err := m.Call(res.Addr, 10)
		if err != nil || got != 11 {
			t.Fatalf("call %d: %d, %v", i, got, err)
		}
		c, _ := m.Mem.Read64(counter)
		if c != i {
			t.Fatalf("counter = %d after %d calls", c, i)
		}
	}
}

// The key invariant (DESIGN.md acceptance criteria): for arguments
// consistent with the declared known values, the rewritten function
// computes exactly what the original computes.
func TestEquivalenceProperty(t *testing.T) {
	progs := []struct {
		name  string
		src   string
		entry string
	}{
		{"mix", `
f:
    mov  r3, r1
    imul r3, r2
    cmp  r3, r1
    jle  small
    sub  r3, r1
    shri r3, 2
small:
    mov  r0, r3
    xori r0, 12345
    ret
`, "f"},
		{"memloop", `
f:
    movi r0, 0
    movi r3, 0
loop:
    cmp  r3, r2
    jge  done
    load r4, [r1+r3*8]
    add  r0, r4
    addi r3, 1
    jmp  loop
done:
    ret
`, "f"},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			m, im := load(t, p.src)
			fn := im.MustEntry(p.entry)
			res := mustRewrite(t, m, brew.NewConfig(), fn, nil, nil)
			// Prepare a small table for memloop.
			tbl, err := m.AllocHeap(64)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(42))
			for i := 0; i < 8; i++ {
				if err := m.Mem.Write64(tbl+uint64(8*i), r.Uint64()%1000); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				var a1, a2 uint64
				if p.name == "memloop" {
					a1, a2 = tbl, uint64(r.Intn(8))
				} else {
					a1, a2 = r.Uint64(), r.Uint64()
				}
				want, err1 := m.Call(fn, a1, a2)
				got, err2 := m.Call(res.Addr, a1, a2)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("error mismatch: %v vs %v", err1, err2)
				}
				if got != want {
					t.Fatalf("f(%d,%d): original %d, rewritten %d", a1, a2, want, got)
				}
			}
		})
	}
}

func TestRewrittenIsFasterWhenSpecialized(t *testing.T) {
	// The whole point: a specialized version executes fewer instructions.
	m, im := load(t, `
poly:
    ; r0 = c0 + x*(c1 + x*c2) with coefficients loaded from memory
    movi r3, coefs
    load r4, [r3+16]
    imul r4, r1
    load r5, [r3+8]
    add  r4, r5
    imul r4, r1
    load r6, [r3]
    add  r4, r6
    mov  r0, r4
    ret
.data
coefs: .quad 7, 3, 2
`)
	fn := im.MustEntry("poly")
	coefs := im.MustEntry("coefs")
	cfg := brew.NewConfig().SetMemRange(coefs, coefs+24)
	res := mustRewrite(t, m, cfg, fn, nil, nil)

	run := func(f uint64) uint64 {
		before := m.Stats.Instructions
		got, err := m.Call(f, 10)
		if err != nil || got != 7+3*10+2*100 {
			t.Fatalf("poly(10) = %d, %v", got, err)
		}
		return m.Stats.Instructions - before
	}
	orig := run(fn)
	spec := run(res.Addr)
	if spec >= orig {
		t.Errorf("specialized executes %d instrs, original %d:\n%s", spec, orig, res.Listing())
	}
}

func TestDivPow2StrengthReduction(t *testing.T) {
	m, im := load(t, `
f:
    ; r0 = r1 / r2 * 1000000 + r1 % r2  (keeps both results visible)
    mov  r3, r1
    idiv r3, r2
    mov  r4, r1
    irem r4, r2
    imuli r3, 1000000
    mov  r0, r3
    add  r0, r4
    ret
`)
	fn := im.MustEntry("f")
	for _, d := range []uint64{1, 2, 8, 1024} {
		cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, d}})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if d > 1 && strings.Contains(res.Result.Listing(), "idiv") {
			t.Errorf("d=%d: idiv not strength-reduced:\n%s", d, res.Result.Listing())
		}
		for _, x := range []int64{0, 1, -1, 5, -5, 1023, -1024, 1 << 40, -(1 << 40), 7777777, -7777777} {
			want, err1 := m.Call(fn, uint64(x), d)
			got, err2 := m.Call(res.Addr, uint64(x), d)
			if err1 != nil || err2 != nil {
				t.Fatalf("d=%d x=%d: %v %v", d, x, err1, err2)
			}
			if got != want {
				t.Errorf("d=%d x=%d: rewritten %d, original %d", d, x, int64(got), int64(want))
			}
		}
	}
	// Non-power-of-two keeps the idiv and stays correct.
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, 6}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Call(fn, uint64(100), 6)
	got, _ := m.Call(res.Addr, uint64(100), 6)
	if got != want {
		t.Errorf("d=6: rewritten %d, original %d", got, want)
	}
}

func TestRewriteComposability(t *testing.T) {
	// Section III.A: "As the result of a rewriting step itself can be used
	// as input for further rewriting, this approach is composable."
	m, im := load(t, `
f:
    mov  r0, r1
    imul r0, r2
    add  r0, r3
    ret
`)
	fn := im.MustEntry("f")

	// Stage 1: fix parameter 2.
	cfg1 := brew.NewConfig().SetParam(2, brew.ParamKnown)
	r1, err := brew.Do(m, &brew.Request{Config: cfg1, Fn: fn, Args: []uint64{0, 6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 2: rewrite the rewritten code, fixing parameter 1 too.
	cfg2 := brew.NewConfig().SetParam(1, brew.ParamKnown)
	r2, err := brew.Do(m, &brew.Request{Config: cfg2, Fn: r1.Addr, Args: []uint64{7}})
	if err != nil {
		t.Fatalf("second-stage rewrite: %v", err)
	}
	// Stage 3: all parameters fixed; the result must be fully evaluated.
	cfg3 := brew.NewConfig().SetParam(3, brew.ParamKnown)
	r3, err := brew.Do(m, &brew.Request{Config: cfg3, Fn: r2.Addr, Args: []uint64{0, 0, 8}})
	if err != nil {
		t.Fatalf("third-stage rewrite: %v", err)
	}
	got, err := m.Call(r3.Addr, 7, 6, 8)
	if err != nil || got != 50 {
		t.Fatalf("composed rewrite = %d, %v; want 50", got, err)
	}
	if !strings.Contains(r3.Result.Listing(), "movi r0, 50") {
		t.Errorf("final stage not fully evaluated:\n%s", r3.Result.Listing())
	}
	// Every stage stays usable.
	for _, stage := range []uint64{fn, r1.Addr, r2.Addr} {
		got, err := m.Call(stage, 7, 6, 8)
		if err != nil || got != 50 {
			t.Errorf("stage at 0x%x = %d, %v", stage, got, err)
		}
	}
}

func TestControlledUnrolling(t *testing.T) {
	// Section V.B: "With controlled unrolling (such as four-times), we
	// imagine that it should be quite simple to write optimization passes
	// for straight-line code." A known-trip loop peels UnrollFactor
	// iterations and closes into a residual loop.
	src := `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`
	sizes := map[int]int{}
	for _, factor := range []int{0, 4} {
		m, im := load(t, src)
		fn := im.MustEntry("sum")
		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		if factor > 0 {
			cfg.SetFuncOpts(fn, brew.FuncOpts{UnrollFactor: factor})
		} else {
			cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
		}
		res := mustRewrite(t, m, cfg, fn, []uint64{100}, nil)
		got, err := m.Call(res.Addr, 100)
		if err != nil || got != 5050 {
			t.Fatalf("factor %d: sum = %d, %v", factor, got, err)
		}
		sizes[factor] = res.CodeSize
		if factor > 0 {
			// Peeled iterations fold the known counter into immediates
			// (addi r0, 100/99/98/97); the residual loop keeps add r0, r1.
			peeled := strings.Count(res.Listing(), "addi r0")
			residual := strings.Count(res.Listing(), "add r0, r1")
			if peeled < 3 || peeled > 8 || residual < 1 {
				t.Errorf("factor 4: %d peeled, %d residual:\n%s", peeled, residual, res.Listing())
			}
		}
	}
	if !(sizes[4] > sizes[0]) {
		t.Errorf("4x unroll (%dB) should be bigger than no-unroll (%dB)", sizes[4], sizes[0])
	}
}

func TestTraceBudgetExceeded(t *testing.T) {
	// A known-condition loop that would unroll 1e6 times exhausts the
	// instruction budget and fails cleanly.
	m, im := load(t, `
f:
    movi r1, 1000000
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`)
	cfg := brew.NewConfig()
	cfg.MaxTracedInstrs = 10000
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: im.MustEntry("f")})
	if !errors.Is(err, brew.ErrTraceTooLong) {
		t.Errorf("err = %v, want ErrTraceTooLong", err)
	}
}

func TestCodeBufferFull(t *testing.T) {
	m, im := load(t, `
f:
    movi r1, 2000
    movi r0, 0
loop:
    add  r0, r1
    load r2, [d]      ; emitted every unrolled iteration
    add  r0, r2
    subi r1, 1
    jne  loop
    ret
.data
d: .quad 5
`)
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.MaxCodeBytes = 512
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: im.MustEntry("f"), Args: []uint64{0}})
	if !errors.Is(err, brew.ErrCodeBufferFull) {
		t.Errorf("err = %v, want ErrCodeBufferFull", err)
	}
}

func TestRetWithUnbalancedStackFails(t *testing.T) {
	m, im := load(t, `
f:
    subi sp, 8
    ret
`)
	_, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: im.MustEntry("f")})
	if !errors.Is(err, brew.ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestPushfPopfTraced(t *testing.T) {
	// Traced input code using PUSHF/POPF: emitted as-is, correct runtime
	// behavior, conservative flag state afterwards.
	m, im := load(t, `
f:
    cmp r1, r2
    pushf
    movi r3, 0      ; clobbers flags
    popf
    setlt r0
    ret
`)
	fn := im.MustEntry("f")
	res, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn})
	if err != nil {
		// A rewrite failure is acceptable here (flags after POPF are
		// conservatively dirty); the original must still work.
		if !errors.Is(err, brew.ErrUnsupported) {
			t.Fatalf("unexpected error class: %v", err)
		}
		got, err := m.Call(fn, 1, 2)
		if err != nil || got != 1 {
			t.Errorf("original f(1,2) = %d, %v", got, err)
		}
		return
	}
	for _, c := range [][3]uint64{{1, 2, 1}, {5, 2, 0}} {
		got, err := m.Call(res.Addr, c[0], c[1])
		if err != nil || got != c[2] {
			t.Errorf("f(%d,%d) = %d, %v; want %d", c[0], c[1], got, err, c[2])
		}
	}
}

func TestFloatFuzzEquivalence(t *testing.T) {
	// Random float pipelines: known/unknown float parameters.
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	ops := []string{"fadd", "fsub", "fmul"}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(7_000_000 + seed)))
		var sb strings.Builder
		sb.WriteString("f:\n")
		n := 4 + r.Intn(12)
		for i := 0; i < n; i++ {
			d, s := 1+r.Intn(4), 1+r.Intn(4)
			switch r.Intn(5) {
			case 0:
				fmt.Fprintf(&sb, "    fmovi f%d, %g\n", d, float64(r.Intn(64))*0.25)
			case 1:
				fmt.Fprintf(&sb, "    fmov f%d, f%d\n", d, s)
			default:
				fmt.Fprintf(&sb, "    %s f%d, f%d\n", ops[r.Intn(len(ops))], d, s)
			}
		}
		sb.WriteString("    fmov f0, f1\n    fadd f0, f2\n    fadd f0, f3\n    fadd f0, f4\n    ret\n")
		m := vm.MustNew()
		im, err := asm.Load(m, sb.String())
		if err != nil {
			t.Fatal(err)
		}
		fn := im.MustEntry("f")
		cfg := brew.NewConfig()
		var fixed []float64
		known := r.Intn(2) == 0
		if known {
			cfg.SetFloatParam(1, brew.ParamKnown)
			fixed = []float64{float64(r.Intn(16)) * 0.5}
		}
		res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, FArgs: fixed})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sb.String())
		}
		for trial := 0; trial < 10; trial++ {
			args := []float64{float64(r.Intn(32)) * 0.25, float64(r.Intn(32)) * 0.25,
				float64(r.Intn(32)) * 0.25, float64(r.Intn(32)) * 0.25}
			if known {
				args[0] = fixed[0]
			}
			want, err1 := m.CallFloat(fn, nil, args)
			got, err2 := m.CallFloat(res.Addr, nil, args)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v / %v", seed, err1, err2)
			}
			if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
				t.Fatalf("seed %d: original %g, rewritten %g\n%s\n%s",
					seed, want, got, sb.String(), res.Result.Listing())
			}
		}
	}
}

func TestRewriteBatchConcurrent(t *testing.T) {
	// Several independent specializations of minc-compiled functions run
	// concurrently; run this test under -race to validate the locking.
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long poly(long x, long k) {
    long r = 1;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
long mix(long a, long b) { return (a ^ b) * 7 + (a & b); }
double scale(double *v, long n, double f) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += v[i] * f; }
    return s;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly, _ := l.FuncAddr("poly")
	mix, _ := l.FuncAddr("mix")
	scale, _ := l.FuncAddr("scale")

	var reqs []*brew.Request
	for k := uint64(1); k <= 6; k++ {
		cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
		reqs = append(reqs, &brew.Request{Config: cfg, Fn: poly, Args: []uint64{0, k}})
	}
	reqs = append(reqs, &brew.Request{Config: brew.NewConfig().SetParam(1, brew.ParamKnown), Fn: mix, Args: []uint64{42}})
	cfgS := brew.NewConfig().SetParam(2, brew.ParamKnown)
	reqs = append(reqs, &brew.Request{Config: cfgS, Fn: scale, Args: []uint64{0, 4}})

	results := make([]*brew.Outcome, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = brew.Do(m, req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if results[i] == nil {
			t.Fatalf("request %d: nil result", i)
		}
	}
	// Validate each specialized poly variant.
	for k := uint64(1); k <= 6; k++ {
		want, _ := m.Call(poly, 9, k)
		got, err := m.Call(results[k-1].Addr, 9, k)
		if err != nil || got != want {
			t.Errorf("poly k=%d: %d vs %d (%v)", k, got, want, err)
		}
	}
	want, _ := m.Call(mix, 42, 99)
	got, err := m.Call(results[6].Addr, 42, 99)
	if err != nil || got != want {
		t.Errorf("mix: %d vs %d (%v)", got, want, err)
	}
	arr, _ := m.AllocHeap(4 * 8)
	if err := m.WriteF64Slice(arr, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	fwant, _ := m.CallFloat(scale, []uint64{arr, 4}, []float64{2})
	fgot, err := m.CallFloat(results[7].Addr, []uint64{arr, 4}, []float64{2})
	if err != nil || fgot != fwant {
		t.Errorf("scale: %g vs %g (%v)", fgot, fwant, err)
	}
}

func TestDefaultsFuncOptsApply(t *testing.T) {
	// Config.Defaults applies to every function without explicit options.
	m, im := load(t, `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.Defaults = brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true}
	res := mustRewrite(t, m, cfg, fn, []uint64{50}, nil)
	if strings.Contains(res.Listing(), "movi r0, 1275") {
		t.Errorf("defaults ignored; loop fully evaluated:\n%s", res.Listing())
	}
	got, err := m.Call(res.Addr, 50)
	if err != nil || got != 1275 {
		t.Errorf("sum = %d, %v", got, err)
	}
}

func TestResultMetadata(t *testing.T) {
	m, im := load(t, "f:\n mov r0, r1\n addi r0, 1\n ret\n")
	res := mustRewrite(t, m, brew.NewConfig(), im.MustEntry("f"), nil, nil)
	if res.TracedInstrs < 3 {
		t.Errorf("TracedInstrs = %d", res.TracedInstrs)
	}
	if res.CodeSize <= 0 || res.Blocks < 1 {
		t.Errorf("CodeSize=%d Blocks=%d", res.CodeSize, res.Blocks)
	}
	if res.Addr < 0x200000 || res.Addr >= 0x400000 {
		t.Errorf("Addr 0x%x outside JIT segment", res.Addr)
	}
}
