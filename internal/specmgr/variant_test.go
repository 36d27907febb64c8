package specmgr_test

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/mem"
	"repro/internal/minc"
	"repro/internal/obs"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

// polySrc is the polymorphic-caller kernel: the loop bound k is the value
// the variant table dispatches on.
const polySrc = `
long poly(long x, long k) {
    long r = 1;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
`

// recordEvents starts a clean flight recording for the rest of the test
// and returns a counter of the events recorded so far, by kind and
// function.
func recordEvents(t *testing.T) func(kind obs.Kind, fn uint64) int {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	return func(kind obs.Kind, fn uint64) int {
		n := 0
		for _, e := range obs.Events() {
			if e.Kind == kind && e.Fn == fn {
				n++
			}
		}
		return n
	}
}

func loadPoly(t *testing.T, m *vm.Machine) uint64 {
	t.Helper()
	l, err := minc.CompileAndLink(m, polySrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := l.FuncAddr("poly")
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func polyRef(x, k uint64) uint64 {
	r := uint64(1)
	for i := uint64(0); i < k; i++ {
		r = r*x + i
	}
	return r
}

// addPolyVariant traces poly under cfg/guards and installs the outcome as
// a sibling variant in e's table (nil guards: the unconditional variant).
func addPolyVariant(t *testing.T, m *vm.Machine, mgr *specmgr.Manager, e *specmgr.Entry, cfg *brew.Config, guards []brew.ParamGuard) *specmgr.Variant {
	t.Helper()
	if cfg == nil {
		cfg = brew.NewConfig()
	}
	out, err := brew.Do(m, &brew.Request{
		Config: cfg, Fn: e.Fn(), Guards: guards, Args: []uint64{0, 0},
		Mode: brew.ModeDegrade,
	})
	v, ok := mgr.InstallVariant(e, cfg, guards, []uint64{0, 0}, nil, out, err)
	if !ok || v == nil {
		t.Fatalf("InstallVariant(%v): ok=%v err=%v", guards, ok, err)
	}
	return v
}

// TestVariantTableDispatch: three guarded variants behind one stub; the
// inline-cache chain routes each hot class to its body, unspecialized
// values fall through to the original (and to an unconditional sibling
// once one is installed), and releasing the entry returns every JIT byte.
func TestVariantTableDispatch(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	free0 := m.JITFreeBytes()

	mgr := specmgr.New(m, specmgr.Policy{})
	e, err := mgr.SpecializeGuarded(brew.NewConfig(), fn,
		[]brew.ParamGuard{{Param: 2, Value: 3}}, []uint64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v3 := e.VariantFor([]uint64{0, 3})
	if v3 == nil || !v3.Live() {
		t.Fatal("no live variant for k=3 after SpecializeGuarded")
	}
	v5 := addPolyVariant(t, m, mgr, e, nil, []brew.ParamGuard{{Param: 2, Value: 5}})
	v9 := addPolyVariant(t, m, mgr, e, nil, []brew.ParamGuard{{Param: 2, Value: 9}})

	if n := len(e.Variants()); n != 3 {
		t.Fatalf("live variants = %d, want 3", n)
	}
	if lo, hi := e.DispatchRange(); hi <= lo {
		t.Fatalf("no dispatch chain: [%#x,%#x)", lo, hi)
	}
	if got := e.VariantFor([]uint64{1, 5}); got != v5 {
		t.Fatalf("VariantFor(k=5) = %p, want v5 %p", got, v5)
	}
	if got := e.VariantFor([]uint64{1, 9}); got != v9 {
		t.Fatalf("VariantFor(k=9) = %p, want v9 %p", got, v9)
	}
	if got := e.VariantFor([]uint64{1, 7}); got != nil {
		t.Fatalf("VariantFor(k=7) = %p, want nil (full miss)", got)
	}

	for _, x := range []uint64{0, 2, 7} {
		for _, k := range []uint64{0, 3, 5, 7, 9, 12} {
			got, err := e.Call(x, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := polyRef(x, k); got != want {
				t.Fatalf("poly(%d,%d) = %d, want %d", x, k, got, want)
			}
		}
	}

	// Per-variant accounting mirrors the chain's dispatch decisions: one
	// hit per x-value for each guarded class, misses for everything that
	// fell past it.
	for _, c := range []struct {
		v *specmgr.Variant
		k uint64
	}{{v3, 3}, {v5, 5}, {v9, 9}} {
		if h := c.v.Guarded().Hits(); h != 3 {
			t.Errorf("variant k=%d hits = %d, want 3", c.k, h)
		}
		if ms := c.v.Guarded().Misses(); ms == 0 {
			t.Errorf("variant k=%d recorded no misses", c.k)
		}
		if calls, _ := c.v.Hotness(); calls != 3 {
			t.Errorf("variant k=%d hot calls = %d, want 3", c.k, calls)
		}
	}

	// An unconditional sibling becomes the chain's fallthrough target.
	vu := addPolyVariant(t, m, mgr, e, nil, nil)
	if got := e.VariantFor([]uint64{1, 7}); got != vu {
		t.Fatalf("VariantFor(k=7) = %p, want unconditional %p", got, vu)
	}
	got, err := e.Call(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := polyRef(4, 7); got != want {
		t.Fatalf("poly(4,7) via fallthrough = %d, want %d", got, want)
	}
	if calls, _ := vu.Hotness(); calls != 1 {
		t.Errorf("unconditional variant hot calls = %d, want 1", calls)
	}

	mgr.Release(e)
	if free := m.JITFreeBytes(); free != free0 {
		t.Fatalf("JIT leak after Release: free %d, baseline %d", free, free0)
	}
}

// TestVariantStormDemotesOnlyOffender: a guard-miss storm demotes only the
// variant whose guards keep missing; its siblings keep serving and the
// entry deoptimizes only when the last live variant goes.
func TestVariantStormDemotesOnlyOffender(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	free0 := m.JITFreeBytes()

	events := recordEvents(t)

	mgr := specmgr.New(m, specmgr.Policy{GuardMissLimit: 3})
	e, err := mgr.SpecializeGuarded(brew.NewConfig(), fn,
		[]brew.ParamGuard{{Param: 2, Value: 3}}, []uint64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v3 := e.VariantFor([]uint64{0, 3})
	v5 := addPolyVariant(t, m, mgr, e, nil, []brew.ParamGuard{{Param: 2, Value: 5}})

	call := func(x, k uint64) {
		t.Helper()
		got, err := e.Call(x, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := polyRef(x, k); got != want {
			t.Fatalf("poly(%d,%d) = %d, want %d", x, k, got, want)
		}
	}

	// k=5 traffic misses v3's guard every call; at the limit only v3 goes.
	call(2, 5)
	call(2, 5)
	if !v3.Live() {
		t.Fatal("v3 demoted before the miss limit")
	}
	call(2, 5)
	if v3.Live() {
		t.Fatal("v3 still live after 3 consecutive misses")
	}
	if !v5.Live() {
		t.Fatal("sibling v5 demoted by v3's storm")
	}
	if d, _ := e.Deopted(); d {
		t.Fatal("entry deopted while a sibling is live")
	}

	// The demoted class falls through to the original; the survivor still
	// serves (and its streak resets on the hit).
	call(2, 3)
	call(2, 5)

	// Storm the survivor: the last demotion deoptimizes the entry.
	call(2, 7)
	call(2, 7)
	call(2, 7)
	if v5.Live() {
		t.Fatal("v5 still live after its own storm")
	}
	if d, reason := e.Deopted(); !d || reason != specmgr.DeoptGuardStorm {
		t.Fatalf("deopted=%v reason=%q, want true/%q", d, reason, specmgr.DeoptGuardStorm)
	}
	call(2, 3)
	call(2, 5)
	call(2, 7)

	if n := events(obs.KindVariantDemote, fn); n != 2 {
		t.Errorf("variant_demote events = %d, want 2", n)
	}
	if n := events(obs.KindEntryDeopt, fn); n != 1 {
		t.Errorf("entry_deopt events = %d, want 1 (only the last demotion)", n)
	}

	mgr.Release(e)
	if free := m.JITFreeBytes(); free != free0 {
		t.Fatalf("JIT leak after Release: free %d, baseline %d", free, free0)
	}
}

// TestVariantWatchDemotesOnlyOffender: an assumption-violating store
// demotes only the variant whose frozen range was hit; a sibling variant
// without that assumption keeps its specialized body.
func TestVariantWatchDemotesOnlyOffender(t *testing.T) {
	m, w := newStencil(t)
	poke := loadPoke(t, m)
	mgr := specmgr.New(m, specmgr.Policy{})

	cfgA, argsA := w.ApplyConfig() // freezes the S5 stencil descriptor
	e, err := mgr.SpecializeGuarded(cfgA, w.Apply,
		[]brew.ParamGuard{{Param: 2, Value: gridXS}}, argsA, nil)
	if err != nil {
		t.Fatal(err)
	}
	vA := e.VariantFor([]uint64{0, gridXS, 0})
	if vA == nil {
		t.Fatal("no variant for the frozen-descriptor class")
	}

	// Sibling for a narrower row stride, with no frozen memory.
	const xsB = 8
	cfgB := brew.NewConfig()
	outB, errB := brew.Do(m, &brew.Request{
		Config: cfgB, Fn: w.Apply,
		Guards: []brew.ParamGuard{{Param: 2, Value: xsB}},
		Args:   []uint64{0, 0, 0}, Mode: brew.ModeDegrade,
	})
	vB, ok := mgr.InstallVariant(e, cfgB,
		[]brew.ParamGuard{{Param: 2, Value: xsB}}, []uint64{0, 0, 0}, nil, outB, errB)
	if !ok {
		t.Fatalf("sibling install failed: %v", errB)
	}

	// Mutate the frozen descriptor through the emulated store path.
	if _, err := m.CallFloat(poke, []uint64{w.S5 + 8}, []float64{-0.5}); err != nil {
		t.Fatal(err)
	}
	if vA.Live() {
		t.Fatal("frozen-descriptor variant survived the store")
	}
	if !vB.Live() {
		t.Fatal("sibling without the assumption was demoted too")
	}
	if d, _ := e.Deopted(); d {
		t.Fatal("entry deopted while a sibling is live")
	}

	// The demoted class falls through to the original, which re-reads the
	// mutated descriptor; the sibling still serves its class.
	cellA := w.M1 + uint64((gridXS+1)*8)
	wantA, err := m.CallFloat(w.Apply, []uint64{cellA, gridXS, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := e.CallFloat([]uint64{cellA, gridXS, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotA != wantA {
		t.Fatalf("demoted class = %g, want %g (stale code survived)", gotA, wantA)
	}

	cellB := w.M1 + uint64((xsB+1)*8)
	wantB, err := m.CallFloat(w.Apply, []uint64{cellB, xsB, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := e.CallFloat([]uint64{cellB, xsB, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("sibling class = %g, want %g", gotB, wantB)
	}
}

// TestVariantLRUWithinTable: installing past Policy.MaxVariants evicts the
// least recently dispatched variant — not the whole entry.
func TestVariantLRUWithinTable(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	free0 := m.JITFreeBytes()

	events := recordEvents(t)

	mgr := specmgr.New(m, specmgr.Policy{MaxVariants: 2})
	e, err := mgr.SpecializeGuarded(brew.NewConfig(), fn,
		[]brew.ParamGuard{{Param: 2, Value: 3}}, []uint64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v3 := e.VariantFor([]uint64{0, 3})
	v5 := addPolyVariant(t, m, mgr, e, nil, []brew.ParamGuard{{Param: 2, Value: 5}})

	// Touch v3 so v5 is the cold one.
	if got, _ := e.Call(2, 3); got != polyRef(2, 3) {
		t.Fatalf("poly(2,3) = %d", got)
	}

	v9 := addPolyVariant(t, m, mgr, e, nil, []brew.ParamGuard{{Param: 2, Value: 9}})
	if v5.Live() {
		t.Fatal("cold variant v5 survived the table limit")
	}
	if !v3.Live() || !v9.Live() {
		t.Fatal("hot variant or the fresh install was evicted instead")
	}
	if n := len(e.Variants()); n != 2 {
		t.Fatalf("live variants = %d, want 2", n)
	}
	if n := events(obs.KindVariantEvict, fn); n != 1 {
		t.Errorf("variant_evict events = %d, want 1", n)
	}

	// The evicted class falls through and stays correct.
	for _, k := range []uint64{3, 5, 9} {
		got, err := e.Call(2, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := polyRef(2, k); got != want {
			t.Fatalf("poly(2,%d) = %d, want %d", k, got, want)
		}
	}

	mgr.Release(e)
	if free := m.JITFreeBytes(); free != free0 {
		t.Fatalf("JIT leak after Release: free %d, baseline %d", free, free0)
	}
}

// TestVariantSameKeyReplacement: installing over an existing guard key
// swaps that variant's body in place (same Variant identity, new tier)
// instead of growing the table.
func TestVariantSameKeyReplacement(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	free0 := m.JITFreeBytes()

	mgr := specmgr.New(m, specmgr.Policy{})
	quick := brew.NewConfig()
	quick.Effort = brew.EffortQuick
	e, err := mgr.SpecializeGuarded(quick, fn,
		[]brew.ParamGuard{{Param: 2, Value: 3}}, []uint64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := e.VariantFor([]uint64{0, 3})
	if v.Tier() != brew.EffortQuick {
		t.Fatalf("fresh variant tier = %v, want quick", v.Tier())
	}

	v2 := addPolyVariant(t, m, mgr, e, brew.NewConfig(),
		[]brew.ParamGuard{{Param: 2, Value: 3}})
	if v2 != v {
		t.Fatal("same-key install created a new variant instead of replacing")
	}
	if !v.Live() || v.Tier() != brew.EffortFull {
		t.Fatalf("replaced variant live=%v tier=%v, want live/full", v.Live(), v.Tier())
	}
	if n := len(e.Variants()); n != 1 {
		t.Fatalf("live variants = %d, want 1", n)
	}
	if e.Tier() != brew.EffortFull {
		t.Fatalf("entry tier = %v, want full", e.Tier())
	}

	for _, k := range []uint64{3, 4} {
		got, err := e.Call(2, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := polyRef(2, k); got != want {
			t.Fatalf("poly(2,%d) = %d, want %d", k, got, want)
		}
	}

	mgr.Release(e)
	if free := m.JITFreeBytes(); free != free0 {
		t.Fatalf("JIT leak after Release: free %d, baseline %d", free, free0)
	}
}

// TestTierReportsServedCode: Entry.Tier reports the tier of the code the
// stable address actually serves — the original (full-effort semantics)
// while pending or after a deopt, the primary variant's tier otherwise.
func TestTierReportsServedCode(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	mgr := specmgr.New(m, specmgr.Policy{})

	quick := brew.NewConfig()
	quick.Effort = brew.EffortQuick
	e, err := mgr.Specialize(quick, fn, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tier() != brew.EffortQuick {
		t.Fatalf("live quick entry Tier = %v, want quick", e.Tier())
	}
	mgr.Deopt(e, specmgr.DeoptManual)
	if e.Tier() != brew.EffortFull {
		t.Fatalf("deopted entry Tier = %v, want full (serves the original)", e.Tier())
	}

	quick2 := brew.NewConfig()
	quick2.Effort = brew.EffortQuick
	p := mgr.AdoptPending(quick2, fn, nil, nil, nil)
	if p.Tier() != brew.EffortFull {
		t.Fatalf("pending entry Tier = %v, want full (serves the original)", p.Tier())
	}
	out, rerr := brew.Do(m, &brew.Request{
		Config: quick2, Fn: fn, Mode: brew.ModeDegrade,
	})
	if _, ok := mgr.InstallVariant(p, quick2, nil, nil, nil, out, rerr); !ok {
		t.Fatalf("InstallVariant failed: %v", rerr)
	}
	if p.Tier() != brew.EffortQuick {
		t.Fatalf("promoted entry Tier = %v, want quick", p.Tier())
	}
}

// TestStubFailureCountsDegraded: a successful rewrite whose 5-byte stub
// allocation fails cannot be served, so it must be recorded as a
// degradation, not as an install (regression: the decision used to
// happen before the stub outcome was known).
func TestStubFailureCountsDegraded(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)

	// Probe the body size, then size the code buffer so the body fits
	// exactly and the stub allocation behind it must fail.
	probe, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeJIT(probe.Addr); err != nil {
		t.Fatal(err)
	}
	bodySize := (uint64(probe.Result.CodeSize) + 15) &^ 15
	m.JITAlloc = mem.NewAllocator(vm.JITBase, bodySize, 16)

	events := recordEvents(t)

	mgr := specmgr.New(m, specmgr.Policy{})
	e, err := mgr.Specialize(brew.NewConfig(), fn, nil, nil)
	if err != nil {
		t.Fatalf("Specialize: %v (the rewrite itself must succeed)", err)
	}
	if !e.Degraded() {
		t.Fatal("entry not degraded after stub-install failure")
	}
	if _, reason := e.Deopted(); reason != brew.ReasonCodeBuffer {
		t.Fatalf("reason = %q, want %q", reason, brew.ReasonCodeBuffer)
	}
	if e.Addr() != fn {
		t.Fatalf("Addr = %#x, want original %#x", e.Addr(), fn)
	}

	if n := events(obs.KindVariantInstall, fn); n != 0 {
		t.Errorf("variant_install events = %d, want 0", n)
	}
	if n := events(obs.KindDegrade, fn); n != 1 {
		t.Errorf("degrade events = %d, want 1", n)
	}

	// The body was given back when the stub failed.
	if free := m.JITAlloc.FreeBytes(); free != bodySize {
		t.Errorf("JIT free = %d, want %d (body leaked)", free, bodySize)
	}

	got, err := e.Call(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := polyRef(3, 4); got != want {
		t.Fatalf("degraded call = %d, want %d", got, want)
	}
}
