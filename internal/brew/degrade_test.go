package brew_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/brew"
	"repro/internal/mem"
	"repro/internal/vm"
)

const sumSrc = `
sum:
    movi r0, 0
loop:
    add  r0, r1
    subi r1, 1
    jne  loop
    ret
`

const add2Src = `
add2:
    mov r0, r1
    add r0, r2
    ret
`

// TestCodeBufferFullNoLeak forces InstallJIT's allocation to fail and
// checks both the error classification and that no code-buffer space leaks
// (regression: InstallJIT used to keep the reservation when the generator
// or write failed).
func TestCodeBufferFullNoLeak(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")
	m.JITAlloc = mem.NewAllocator(vm.JITBase, 8, 8)
	free0 := m.JITAlloc.FreeBytes()

	_, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn})
	if !errors.Is(err, brew.ErrCodeBufferFull) {
		t.Fatalf("Rewrite under 8-byte buffer: %v, want ErrCodeBufferFull", err)
	}
	if got := m.JITAlloc.FreeBytes(); got != free0 {
		t.Errorf("code buffer leaked: %d free, was %d", got, free0)
	}
	if r := brew.DegradeReason(err); r != brew.ReasonCodeBuffer {
		t.Errorf("DegradeReason = %q, want %q", r, brew.ReasonCodeBuffer)
	}
}

// TestGuardedDispatcherNoSpaceFreesBody sizes the code buffer so the
// specialized body fits exactly and the dispatcher allocation must fail:
// a guarded Do has to give the body back (regression: it leaked).
func TestGuardedDispatcherNoSpaceFreesBody(t *testing.T) {
	m, im := load(t, add2Src)
	fn := im.MustEntry("add2")

	// Probe the body size with the same parameter setting a guarded Do
	// constructs for the guard below.
	probe, err := brew.Do(m, &brew.Request{Config: brew.NewConfig().SetParam(2, brew.ParamKnown), Fn: fn, Args: []uint64{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeJIT(probe.Addr); err != nil {
		t.Fatal(err)
	}
	bodySize := (uint64(probe.Result.CodeSize) + 15) &^ 15

	m.JITAlloc = mem.NewAllocator(vm.JITBase, bodySize, 16)
	free0 := m.JITAlloc.FreeBytes()
	out, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 5}}, Args: []uint64{0, 0}})
	if out != nil || !errors.Is(err, brew.ErrCodeBufferFull) {
		t.Fatalf("guarded Do = %v, %v; want nil, ErrCodeBufferFull", out, err)
	}
	if got := m.JITAlloc.FreeBytes(); got != free0 {
		t.Errorf("specialized body leaked: %d free, was %d", got, free0)
	}
}

// TestGuardedInjectedDispatchFaultFreesBody covers the same leak path via
// the fault-injection seam instead of genuine exhaustion.
func TestGuardedInjectedDispatchFaultFreesBody(t *testing.T) {
	m, im := load(t, add2Src)
	fn := im.MustEntry("add2")
	free0 := m.JITAlloc.FreeBytes()

	boom := errors.New("injected dispatch fault")
	cfg := brew.NewConfig()
	cfg.Inject = func(site string) error {
		if site == brew.SiteDispatch {
			return boom
		}
		return nil
	}
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 5}}, Args: []uint64{0, 0}})
	if out != nil || !errors.Is(err, boom) {
		t.Fatalf("guarded Do = %v, %v; want nil, injected fault", out, err)
	}
	if got := m.JITAlloc.FreeBytes(); got != free0 {
		t.Errorf("specialized body leaked: %d free, was %d", got, free0)
	}
}

func TestBadConfigVariants(t *testing.T) {
	m, im := load(t, add2Src)
	fn := im.MustEntry("add2")

	cases := []struct {
		name string
		call func() error
	}{
		{"zero-value config", func() error {
			_, err := brew.Do(m, &brew.Request{Config: &brew.Config{}, Fn: fn})
			return err
		}},
		{"negative budget instrs", func() error {
			cfg := brew.NewConfig()
			cfg.Budget = &brew.Budget{MaxTracedInstrs: -1}
			_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
			return err
		}},
		{"negative budget bytes", func() error {
			cfg := brew.NewConfig()
			cfg.Budget = &brew.Budget{MaxEmittedBytes: -1}
			_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
			return err
		}},
		{"negative budget deadline", func() error {
			cfg := brew.NewConfig()
			cfg.Budget = &brew.Budget{Deadline: -time.Second}
			_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
			return err
		}},
		{"known param without argument", func() error {
			cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
			_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
			return err
		}},
		{"guard on parameter 0", func() error {
			_, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn,
				Guards: []brew.ParamGuard{{Param: 0, Value: 1}}})
			return err
		}},
		{"guard out of ABI range", func() error {
			_, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn,
				Guards: []brew.ParamGuard{{Param: 99, Value: 1}}})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, brew.ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", tc.name, err)
		} else if r := brew.DegradeReason(err); r != brew.ReasonBadConfig {
			t.Errorf("%s: DegradeReason = %q, want %q", tc.name, r, brew.ReasonBadConfig)
		}
	}
}

func TestBudgetTraceExhaustion(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.Budget = &brew.Budget{MaxTracedInstrs: 100}
	// Unrolling 100k iterations would trace ~300k instructions; the budget
	// stops it after 100.
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{100_000}})
	if !errors.Is(err, brew.ErrTraceTooLong) {
		t.Fatalf("Rewrite = %v, want ErrTraceTooLong", err)
	}
	if r := brew.DegradeReason(err); r != brew.ReasonTraceBudget {
		t.Errorf("DegradeReason = %q, want %q", r, brew.ReasonTraceBudget)
	}
	// Without the budget the same rewrite succeeds: the budget tightened,
	// not replaced, the structural limit.
	cfg.Budget = nil
	if _, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{100_000}}); err != nil {
		t.Fatalf("unbudgeted Rewrite = %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.Budget = &brew.Budget{Deadline: time.Nanosecond}
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{100_000}})
	if !errors.Is(err, brew.ErrDeadline) {
		t.Fatalf("Rewrite = %v, want ErrDeadline", err)
	}
	if r := brew.DegradeReason(err); r != brew.ReasonDeadline {
		t.Errorf("DegradeReason = %q, want %q", r, brew.ReasonDeadline)
	}
}

func TestBudgetEmittedBytes(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")
	cfg := brew.NewConfig()
	cfg.Budget = &brew.Budget{MaxEmittedBytes: 4}
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if !errors.Is(err, brew.ErrCodeBufferFull) {
		t.Fatalf("Rewrite = %v, want ErrCodeBufferFull", err)
	}
}

// TestInjectedFaultsAtEverySite checks that a fault injected at each
// pipeline site surfaces as the rewrite error, and that a panicking hook is
// converted to ErrRewritePanic instead of unwinding into the host.
func TestInjectedFaultsAtEverySite(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")
	sites := []string{brew.SiteTrace, brew.SiteOptimize, brew.SiteLayout, brew.SiteInstall}
	for _, site := range sites {
		boom := errors.New("injected at " + site)
		cfg := brew.NewConfig()
		cfg.Inject = func(s string) error {
			if s == site {
				return boom
			}
			return nil
		}
		if _, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn}); !errors.Is(err, boom) {
			t.Errorf("site %s: Rewrite = %v, want injected fault", site, err)
		}
	}

	cfg := brew.NewConfig()
	cfg.Inject = func(string) error { panic("injected panic") }
	_, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if !errors.Is(err, brew.ErrRewritePanic) {
		t.Fatalf("panicking hook: Rewrite = %v, want ErrRewritePanic", err)
	}
	if r := brew.DegradeReason(err); r != brew.ReasonPanic {
		t.Errorf("DegradeReason = %q, want %q", r, brew.ReasonPanic)
	}
}

// TestRewriteOrDegrade checks ModeDegrade's never-fails contract: on
// failure the outcome addresses the original function and stays correct
// to call.
func TestRewriteOrDegrade(t *testing.T) {
	m, im := load(t, sumSrc)
	fn := im.MustEntry("sum")

	cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
	cfg.Budget = &brew.Budget{MaxTracedInstrs: 10}
	req := &brew.Request{Config: cfg, Fn: fn, Args: []uint64{1000}, Mode: brew.ModeDegrade}
	res, err := brew.Do(m, req)
	if !errors.Is(err, brew.ErrDegraded) || !errors.Is(err, brew.ErrTraceTooLong) {
		t.Fatalf("err = %v, want ErrDegraded wrapping ErrTraceTooLong", err)
	}
	if res == nil || !res.Degraded || !res.Result.Degraded || res.Addr != fn {
		t.Fatalf("res = %+v, want degraded outcome at original entry", res)
	}
	got, err := m.Call(res.Addr, 10)
	if err != nil || got != 55 {
		t.Fatalf("degraded call = %d, %v; want 55", got, err)
	}

	// Success path is a passthrough.
	cfg.Budget = nil
	req.Args = []uint64{10}
	res, err = brew.Do(m, req)
	if err != nil || res.Degraded {
		t.Fatalf("degrade-mode success = %+v, %v", res, err)
	}
	if got, err := m.Call(res.Addr, 10); err != nil || got != 55 {
		t.Fatalf("specialized call = %d, %v; want 55", got, err)
	}
}

// TestGuardCountersUnconditional checks that guard hit/miss accounting
// needs no observation gate: the adaptive deoptimization policy depends on
// these counters with obs disabled.
func TestGuardCountersUnconditional(t *testing.T) {
	m, im := load(t, add2Src)
	fn := im.MustEntry("add2")
	out, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 5}}, Args: []uint64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	g := out.Guarded
	call := func(a, b, want uint64) {
		t.Helper()
		got, err := g.Call(m, a, b)
		if err != nil || got != want {
			t.Fatalf("Call(%d,%d) = %d, %v; want %d", a, b, got, err, want)
		}
	}
	call(1, 5, 6) // hit
	call(2, 7, 9) // miss, via original
	call(3, 8, 11)
	if g.Hits() != 1 || g.Misses() != 2 || g.MissStreak() != 2 {
		t.Errorf("hits/misses/streak = %d/%d/%d, want 1/2/2",
			g.Hits(), g.Misses(), g.MissStreak())
	}
	call(4, 5, 9) // hit resets the streak
	if g.Hits() != 2 || g.MissStreak() != 0 {
		t.Errorf("after hit: hits=%d streak=%d, want 2/0", g.Hits(), g.MissStreak())
	}
}
