package vm_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

func loadRun(t *testing.T, src, entry string, args ...uint64) (uint64, *vm.Machine) {
	t.Helper()
	m := vm.MustNew()
	im, err := asm.Load(m, src)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := m.Call(im.MustEntry(entry), args...)
	if err != nil {
		t.Fatal(err)
	}
	return ret, m
}

func TestSumLoop(t *testing.T) {
	// sum of 1..n passed in r1
	ret, _ := loadRun(t, `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne loop
    ret
`, "sum", 10)
	if ret != 55 {
		t.Errorf("sum = %d, want 55", ret)
	}
}

func TestCallAndStack(t *testing.T) {
	ret, m := loadRun(t, `
main:
    push r10
    movi r10, 40
    mov  r1, r10
    movi r2, 2
    call addfn
    pop  r10
    ret
addfn:
    mov  r0, r1
    add  r0, r2
    ret
`, "main")
	if ret != 42 {
		t.Errorf("ret = %d, want 42", ret)
	}
	// Top-level invocation enters without a CALL instruction, so only the
	// inner call to addfn is counted.
	if m.Stats.Calls != 1 {
		t.Errorf("calls = %d, want 1", m.Stats.Calls)
	}
}

func TestRecursiveFib(t *testing.T) {
	src := `
fib:
    cmpi r1, 2
    jlt  base
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
`
	want := []uint64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	m := vm.MustNew()
	im, err := asm.Load(m, src)
	if err != nil {
		t.Fatal(err)
	}
	for n, w := range want {
		got, err := m.Call(im.MustEntry("fib"), uint64(n))
		if err != nil {
			t.Fatalf("fib(%d): %v", n, err)
		}
		if got != w {
			t.Errorf("fib(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	ret, _ := loadRun(t, `
main:
    movi r1, tbl
    load r2, [r1]         ; 7
    load r3, [r1+8]       ; 9
    movi r4, 1
    load r5, [r1+r4*8]    ; 9
    add  r2, r3
    add  r2, r5
    storeb [r1], r2       ; write low byte (25)
    loadb r0, [r1]
    ret
.data
tbl: .quad 7, 9
`, "main")
	if ret != 25 {
		t.Errorf("ret = %d, want 25", ret)
	}
}

func TestLEA(t *testing.T) {
	ret, _ := loadRun(t, `
main:
    movi r1, 100
    movi r2, 3
    lea  r0, [r1+r2*8+4]
    ret
`, "main")
	if ret != 128 {
		t.Errorf("lea = %d, want 128", ret)
	}
}

func TestFloatOps(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
dot:
    ; r1 = a, r2 = b, r3 = n
    fmovi f0, 0.0
loop:
    fload f1, [r1]
    fload f2, [r2]
    fmul  f1, f2
    fadd  f0, f1
    addi  r1, 8
    addi  r2, 8
    subi  r3, 1
    jne   loop
    ret
.data
a: .double 1.0, 2.0, 3.0
b: .double 4.0, 5.0, 6.0
`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := im.Entry("a")
	b, _ := im.Entry("b")
	got, err := m.CallFloat(im.MustEntry("dot"), []uint64{a, b, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("dot = %g, want 32", got)
	}
}

func TestCvtAndFpMisc(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    cvtif f1, r1     ; f1 = (double) r1
    fmovi f2, 2.0
    fdiv  f1, f2
    fsqrt f1, f1
    fneg  f1
    cvtfi r0, f1
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(im.MustEntry("f"), 32) // sqrt(16) = 4; negated -4
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) != -4 {
		t.Errorf("got %d, want -4", int64(got))
	}
}

func TestVectorOps(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
vsum:
    vload  v0, [r1]
    vload  v1, [r2]
    vmul   v0, v1
    vhadd  f0, v0
    ret
.data
x: .double 1.0, 2.0, 3.0, 4.0
y: .double 10.0, 20.0, 30.0, 40.0
`)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := im.Entry("x")
	y, _ := im.Entry("y")
	got, err := m.CallFloat(im.MustEntry("vsum"), []uint64{x, y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10+40+90+160 {
		t.Errorf("vsum = %g, want 300", got)
	}
}

func TestVBcast(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    fmovi f1, 2.5
    vbcast v0, f1
    vhadd  f0, v0
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(im.MustEntry("f"), nil, nil)
	if err != nil || got != 10 {
		t.Errorf("bcast sum = %g, %v; want 10", got, err)
	}
}

func TestSetccAndConditions(t *testing.T) {
	// r0 = (r1 < r2) signed
	src := `
lt:
    cmp r1, r2
    setlt r0
    ret
`
	m := vm.MustNew()
	im, err := asm.Load(m, src)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b uint64
		want uint64
	}{
		{1, 2, 1}, {2, 1, 0}, {2, 2, 0},
		{^uint64(4), 3, 1}, {3, ^uint64(4), 0}, // -5 vs 3 signed
	}
	for _, c := range cases {
		got, err := m.Call(im.MustEntry("lt"), c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("lt(%d,%d) = %d, want %d", int64(c.a), int64(c.b), got, c.want)
		}
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, "f:\n idiv r1, r2\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(im.MustEntry("f"), 10, 0); !errors.Is(err, isa.ErrDivideByZero) {
		t.Errorf("div by zero: %v", err)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, "f:\n movi r1, 0x900000000\n load r0, [r1]\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(im.MustEntry("f")); err == nil {
		t.Error("unmapped access did not fault")
	}
}

func TestStepLimit(t *testing.T) {
	m := vm.MustNew()
	m.UserStepLimit = 100
	im, err := asm.Load(m, "f:\n jmp f\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(im.MustEntry("f")); !errors.Is(err, vm.ErrStepLimit) {
		t.Errorf("step limit: %v", err)
	}
}

func TestBreakpoint(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, "f:\n movi r0, 7\n brk\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Call(im.MustEntry("f"))
	if !errors.Is(err, vm.ErrBreak) {
		t.Fatalf("want break, got %v", err)
	}
	if m.CPU.R[0] != 7 {
		t.Errorf("r0 = %d", m.CPU.R[0])
	}
}

func TestStatsAccounting(t *testing.T) {
	_, m := loadRun(t, `
main:
    movi r1, 4
loop:
    subi r1, 1
    jne  loop
    load r2, [d]
    store [d], r2
    ret
.data
d: .quad 1
`, "main")
	st := m.Stats
	if st.Instructions == 0 || st.Cycles < st.Instructions {
		t.Errorf("instr=%d cycles=%d", st.Instructions, st.Cycles)
	}
	// 1 load + 1 store of data, plus stack traffic from Call.
	if st.Loads < 2 || st.Stores < 2 {
		t.Errorf("loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.Branches != 4 || st.TakenBranches != 3 {
		t.Errorf("branches=%d taken=%d", st.Branches, st.TakenBranches)
	}
	if st.OpCount[isa.SUBI] != 4 {
		t.Errorf("subi count = %d", st.OpCount[isa.SUBI])
	}
}

func TestFuncCostAndRegionCost(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
main:
    call helper
    load r1, [slow]
    ret
helper:
    ret
.data
slow: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := im.Entry("slow")
	m.FuncCost[im.MustEntry("helper")] = 1000
	rc := &vm.RegionCost{Base: slow, End: slow + 8, Extra: 5000}
	m.RegionCosts = append(m.RegionCosts, rc)
	before := m.Stats.Cycles
	if _, err := m.Call(im.MustEntry("main")); err != nil {
		t.Fatal(err)
	}
	cost := m.Stats.Cycles - before
	if cost < 6000 {
		t.Errorf("cycles = %d, want >= 6000 (func+region cost)", cost)
	}
	if rc.Count != 1 {
		t.Errorf("region count = %d", rc.Count)
	}
}

func TestOnCallAndMemHooks(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
main:
    movi r1, 42
    call target
    load r2, [d]
    store [d], r2
    ret
target:
    ret
.data
d: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	var calls []uint64
	var arg1 uint64
	m.OnCall = func(t uint64, c *vm.CPU) { calls = append(calls, t); arg1 = c.R[1] }
	loads, stores := 0, 0
	m.OnLoad = func(addr uint64, size int) { loads++ }
	m.OnStore = func(addr uint64, size int) { stores++ }
	if _, err := m.Call(im.MustEntry("main")); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != im.MustEntry("target") || arg1 != 42 {
		t.Errorf("call hook: %v arg1=%d", calls, arg1)
	}
	if loads < 1 || stores < 1 {
		t.Errorf("mem hooks: loads=%d stores=%d", loads, stores)
	}
}

func TestICacheInvalidation(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, "f:\n movi r0, 1\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	f := im.MustEntry("f")
	if r, _ := m.Call(f); r != 1 {
		t.Fatalf("first call = %d", r)
	}
	// Overwrite with movi r0, 9; the old decode must not be served.
	p, err := asm.AssembleAt("f:\n movi r0, 9\n ret\n", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(f, p.Code); err != nil {
		t.Fatal(err)
	}
	m.InvalidateICache()
	if r, _ := m.Call(f); r != 9 {
		t.Errorf("after rewrite call = %d, want 9", r)
	}
}

func TestCallTooManyArgs(t *testing.T) {
	m := vm.MustNew()
	if _, err := m.Call(0x1000, 1, 2, 3, 4, 5, 6, 7); !errors.Is(err, vm.ErrTooManyArgs) {
		t.Errorf("too many args: %v", err)
	}
}

func TestWriteReadSlices(t *testing.T) {
	m := vm.MustNew()
	a, err := m.AllocHeap(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteF64Slice(a, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadF64Slice(a, 3)
	if err != nil || got[0] != 1 || got[2] != 3 {
		t.Errorf("slice roundtrip: %v %v", got, err)
	}
	if err := m.WriteI64Slice(a, []int64{-1, 5}); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Mem.Read64(a)
	if int64(v) != -1 {
		t.Errorf("i64 write: %d", int64(v))
	}
}

// Property: the emulator's ALU matches Go's semantics for random inputs on
// a representative program (a+b*c - (a>>3)).
func TestALUMatchesGoProperty(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    mov  r4, r2
    imul r4, r3
    add  r4, r1
    mov  r5, r1
    sari r5, 3
    sub  r4, r5
    mov  r0, r4
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := im.MustEntry("f")
	f := func(a, b, c int64) bool {
		got, err := m.Call(fn, uint64(a), uint64(b), uint64(c))
		if err != nil {
			return false
		}
		want := a + b*c - (a >> 3)
		return int64(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: push/pop sequences preserve values (stack discipline).
func TestStackProperty(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    push r1
    push r2
    push r3
    pop  r4
    pop  r5
    pop  r6
    mov  r0, r6      ; r6 = original r1
    imuli r0, 1
    sub  r0, r1      ; 0 if preserved
    mov  r7, r5
    sub  r7, r2
    add  r0, r7
    mov  r7, r4
    sub  r7, r3
    add  r0, r7
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := im.MustEntry("f")
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b, c := r.Uint64(), r.Uint64(), r.Uint64()
		got, err := m.Call(fn, a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("stack not preserved for %d %d %d", a, b, c)
		}
	}
}

func TestPushfPopfSemantics(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    cmp  r1, r2     ; set flags from comparison
    pushf
    movi r3, 1      ; clobber flags
    cmpi r3, 99
    popf            ; restore comparison flags
    setlt r0
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := im.MustEntry("f")
	cases := [][3]uint64{{1, 2, 1}, {5, 2, 0}, {3, 3, 0}}
	for _, c := range cases {
		got, err := m.Call(fn, c[0], c[1])
		if err != nil || got != c[2] {
			t.Errorf("f(%d,%d) = %d, %v; want %d", c[0], c[1], got, err, c[2])
		}
	}
}

func TestFloatBitMoves(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    fmovi f1, 1.5
    fmovfi r0, f1     ; raw bits of 1.5
    fmovif f2, r0     ; back to float
    fmov  f0, f2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(im.MustEntry("f"), nil, nil)
	if err != nil || got != 1.5 {
		t.Errorf("roundtrip = %g, %v", got, err)
	}
	if m.CPU.R[0] != 0x3FF8000000000000 {
		t.Errorf("bits = 0x%x", m.CPU.R[0])
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    movi r3, target
    callr r3
    movi r4, done
    jmpr r4
    movi r0, 0        ; skipped
done:
    addi r0, 1
    ret
target:
    movi r0, 40
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(im.MustEntry("f"))
	if err != nil || got != 41 {
		t.Errorf("f() = %d, %v; want 41", got, err)
	}
}

func TestExecuteNonExecutableFaults(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    movi r1, d
    jmpr r1
.data
d: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(im.MustEntry("f")); err == nil {
		t.Error("jumping into .data did not fault")
	}
}
