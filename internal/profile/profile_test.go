package profile_test

import (
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/profile"
	"repro/internal/vm"
)

const src = `
long poly(long x, long k) {
    long r = 0;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
long driver(long n) {
    long acc = 0;
    for (long j = 0; j < n; j++) {
        acc += poly(j, 42);
    }
    acc += poly(7, 3);
    return acc;
}
`

func setup(t *testing.T) (*vm.Machine, uint64, uint64) {
	t.Helper()
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly, _ := l.FuncAddr("poly")
	driver, _ := l.FuncAddr("driver")
	return m, poly, driver
}

func TestCollectorHistograms(t *testing.T) {
	m, poly, driver := setup(t)
	c := profile.NewCollector(m, 128)
	p := c.Watch(poly, 2)
	if _, err := m.Call(driver, 10); err != nil {
		t.Fatal(err)
	}
	c.Detach()
	if p.Calls != 11 {
		t.Fatalf("calls = %d, want 11", p.Calls)
	}
	hot, frac := p.Hot(2)
	if hot.Value != 42 || frac < 0.9 {
		t.Errorf("hot param2 = %d (%.2f), want 42 (>= 0.9)", hot.Value, frac)
	}
	top := p.Top(2, 2)
	if len(top) != 2 || top[0].Value != 42 || top[1].Value != 3 {
		t.Errorf("top = %v", top)
	}
	stable := p.StableParams(0.9)
	if len(stable) != 1 || stable[0] != 2 {
		t.Errorf("stable = %v", stable)
	}
}

func TestDetachRestoresHook(t *testing.T) {
	m, poly, driver := setup(t)
	var outer int
	m.OnCall = func(uint64, *vm.CPU) { outer++ }
	c := profile.NewCollector(m, 8)
	p := c.Watch(poly, 2)
	if _, err := m.Call(driver, 2); err != nil {
		t.Fatal(err)
	}
	if outer == 0 {
		t.Error("previous hook not chained")
	}
	c.Detach()
	before := p.Calls
	if _, err := m.Call(driver, 2); err != nil {
		t.Fatal(err)
	}
	if p.Calls != before {
		t.Error("collector still active after Detach")
	}
	if outer < 6 {
		t.Errorf("outer hook lost after detach: %d", outer)
	}
}

func TestGuardedSpecializationFromProfile(t *testing.T) {
	m, poly, driver := setup(t)
	c := profile.NewCollector(m, 128)
	p := c.Watch(poly, 2)
	want, err := m.Call(driver, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Detach()

	hot, frac := p.Hot(2)
	if frac < 0.9 {
		t.Fatalf("profile not stable: %v %f", hot, frac)
	}
	out, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: poly,
		Guards: []brew.ParamGuard{{Param: 2, Value: hot.Value}}})
	if err != nil {
		t.Fatal(err)
	}
	g := out.Guarded

	// Hot path: guard matches, runs the specialized version.
	a, err := m.Call(g.Addr, 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Call(poly, 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("guarded hot path: %d != %d", a, b)
	}
	// Cold path: guard fails, falls back to the original.
	a, err = m.Call(g.Addr, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err = m.Call(poly, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("guarded cold path: %d != %d", a, b)
	}

	// The specialized version must be cheaper on the hot path.
	count := func(fn uint64) uint64 {
		before := m.Stats.Instructions
		if _, err := m.Call(fn, 9, 42); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Instructions - before
	}
	if spec, orig := count(g.Addr), count(poly); spec >= orig {
		t.Errorf("guarded dispatch (%d instrs) not cheaper than original (%d)", spec, orig)
	}
	_ = want

	if !strings.Contains(g.Rewrite.Listing(), "block") {
		t.Error("missing listing")
	}
}

func TestGuardErrors(t *testing.T) {
	m, poly, _ := setup(t)
	if _, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: poly,
		Guards: []brew.ParamGuard{{Param: 9, Value: 1}}}); err == nil {
		t.Error("bad param index accepted")
	}
}
