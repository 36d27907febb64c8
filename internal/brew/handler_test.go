package brew_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// Handlers used by injection tests: they satisfy the handler contract
// (preserve every register; the injection bracket protects the flags).
const handlerRuntime = `
entry_handler:
    push r8
    movi r8, entry_count
    push r9
    load r9, [r8]
    addi r9, 1
    store [r8], r9
    pop r9
    pop r8
    ret

exit_handler:
    push r8
    movi r8, exit_count
    push r9
    load r9, [r8]
    addi r9, 1
    store [r8], r9
    pop r9
    pop r8
    ret

; Records the accessed address (delivered in r9) into a ring buffer and
; counts accesses.
load_handler:
    push r8
    push r7
    movi r8, load_count
    load r7, [r8]
    addi r7, 1
    store [r8], r7
    ; ring slot = (count-1) % 8
    subi r7, 1
    andi r7, 7
    movi r8, load_ring
    store [r8+r7*8], r9
    pop r7
    pop r8
    ret

store_handler:
    push r8
    movi r8, store_count
    push r9
    load r9, [r8]
    addi r9, 1
    store [r8], r9
    pop r9
    pop r8
    ret

.data
entry_count: .quad 0
exit_count:  .quad 0
load_count:  .quad 0
store_count: .quad 0
load_ring:   .space 64
`

func TestExitHandlerInjection(t *testing.T) {
	m := vm.MustNew()
	rt, err := asm.Load(m, handlerRuntime)
	if err != nil {
		t.Fatal(err)
	}
	l, err := minc.CompileAndLink(m, `
long f(long a) {
    if (a > 10) { return a * 2; }
    return a + 1;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("f")
	cfg := brew.NewConfig()
	cfg.EntryHandler = rt.MustEntry("entry_handler")
	cfg.ExitHandler = rt.MustEntry("exit_handler")
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	// Both return paths must fire the exit handler.
	for _, a := range []uint64{5, 50} {
		want, _ := m.Call(fn, a)
		got, err := m.Call(res.Addr, a)
		if err != nil || got != want {
			t.Fatalf("f(%d) = %d, %v; want %d", a, got, err, want)
		}
	}
	ec, _ := m.Mem.Read64(rt.MustEntry("entry_count"))
	xc, _ := m.Mem.Read64(rt.MustEntry("exit_count"))
	if ec != 2 || xc != 2 {
		t.Errorf("entry=%d exit=%d, want 2/2", ec, xc)
	}
}

func TestMemHandlerInjection(t *testing.T) {
	m := vm.MustNew()
	rt, err := asm.Load(m, handlerRuntime)
	if err != nil {
		t.Fatal(err)
	}
	l, err := minc.CompileAndLink(m, `
double sum3(double *a) {
    return a[0] + a[1] + a[2];
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("sum3")
	arr, _ := m.AllocHeap(3 * 8)
	if err := m.WriteF64Slice(arr, []float64{1.5, 2.5, 3.5}); err != nil {
		t.Fatal(err)
	}
	cfg := brew.NewConfig()
	cfg.LoadHandler = rt.MustEntry("load_handler")
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(res.Addr, []uint64{arr}, nil)
	if err != nil || got != 7.5 {
		t.Fatalf("sum3 = %g, %v", got, err)
	}
	lc, _ := m.Mem.Read64(rt.MustEntry("load_count"))
	if lc != 3 {
		t.Fatalf("load handler fired %d times, want 3\n%s", lc, res.Result.Listing())
	}
	// The recorded addresses are the three array elements (in order).
	ring := rt.MustEntry("load_ring")
	for i := 0; i < 3; i++ {
		a, _ := m.Mem.Read64(ring + uint64(8*i))
		if a != arr+uint64(8*i) {
			t.Errorf("recorded address %d = 0x%x, want 0x%x", i, a, arr+uint64(8*i))
		}
	}
}

func TestMemHandlerPreservesLiveFlags(t *testing.T) {
	// A load sits between the comparison and the branch: the injected
	// callback must not corrupt the flags (PUSHF/POPF bracket).
	m := vm.MustNew()
	rt, err := asm.Load(m, handlerRuntime)
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Load(m, `
f:
    cmp  r1, r2
    load r3, [d]       ; load between cmp and branch
    jlt  lt
    movi r0, 100
    add  r0, r3
    ret
lt:
    movi r0, 200
    add  r0, r3
    ret
.data
d: .quad 7
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := im.MustEntry("f")
	cfg := brew.NewConfig()
	cfg.LoadHandler = rt.MustEntry("load_handler")
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][3]uint64{{1, 2, 207}, {5, 2, 107}, {3, 3, 107}}
	for _, c := range cases {
		got, err := m.Call(res.Addr, c[0], c[1])
		if err != nil || got != c[2] {
			t.Errorf("f(%d,%d) = %d, %v; want %d", c[0], c[1], got, err, c[2])
		}
	}
}

func TestStoreHandlerInjection(t *testing.T) {
	m := vm.MustNew()
	rt, err := asm.Load(m, handlerRuntime)
	if err != nil {
		t.Fatal(err)
	}
	l, err := minc.CompileAndLink(m, `
long fill(long *a, long n) {
    for (long i = 0; i < n; i++) { a[i] = i; }
    return n;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("fill")
	arr, _ := m.AllocHeap(8 * 8)
	cfg := brew.NewConfig()
	cfg.StoreHandler = rt.MustEntry("store_handler")
	// Only instrument data stores of the loop body; the function's own
	// frame traffic counts too, so compare against a known bound instead
	// of an exact count.
	res, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(res.Addr, arr, 8); err != nil {
		t.Fatal(err)
	}
	sc, _ := m.Mem.Read64(rt.MustEntry("store_count"))
	if sc < 8 {
		t.Errorf("store handler fired %d times, want >= 8", sc)
	}
	for i := 0; i < 8; i++ {
		v, _ := m.Mem.Read64(arr + uint64(8*i))
		if v != uint64(i) {
			t.Errorf("a[%d] = %d", i, v)
		}
	}
}
