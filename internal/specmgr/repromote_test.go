package specmgr_test

import (
	"math"
	"testing"

	"repro/internal/brew"
	"repro/internal/specmgr"
)

// TestRepromoteHotSwap: a successful RepromoteVariant of the primary
// variant swaps a live tier-0 entry's body for the full-effort code behind
// the same stable address, updates the retained configuration and tier,
// and frees the old body — Release afterwards returns the JIT space to the
// pre-specialization baseline.
func TestRepromoteHotSwap(t *testing.T) {
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()
	mgr := specmgr.New(m, specmgr.Policy{})

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	e, err := mgr.Specialize(cfg, w.Apply, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Tier(); got != brew.EffortQuick {
		t.Fatalf("tier after quick specialize %s, want quick", got)
	}
	stable := e.Addr()
	quickAddr := e.Result().Addr

	// Managed calls feed the stub-side hotness counter.
	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallFloat(callArgs, nil); err != nil {
		t.Fatal(err)
	}
	if calls, _ := e.Hotness(); calls != 1 {
		t.Fatalf("hotness calls = %d after one managed call", calls)
	}

	fcfg, fargs := w.ApplyConfig()
	out, rerr := brew.Do(m, &brew.Request{Config: fcfg, Fn: w.Apply, Args: fargs})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !mgr.RepromoteVariant(e, e.Variants()[0], fcfg, out, rerr) {
		t.Fatal("RepromoteVariant refused a live tier-0 entry")
	}
	if got := e.Tier(); got != brew.EffortFull {
		t.Fatalf("tier after RepromoteVariant %s, want full", got)
	}
	if e.Addr() != stable {
		t.Fatalf("stable address moved: %#x -> %#x", stable, e.Addr())
	}
	if e.Result().Addr == quickAddr {
		t.Fatal("RepromoteVariant kept the tier-0 body")
	}
	got, err := m.CallFloat(e.Addr(), callArgs, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("promoted call = %g, %v; want %g", got, err, want)
	}

	// The old body was freed by the swap and the new one by Release: no
	// JIT space leaks across the promote-then-release lifecycle.
	mgr.Release(e)
	if free := m.JITFreeBytes(); free != baseline {
		t.Fatalf("JIT leak: free %d, baseline %d", free, baseline)
	}
}

// TestRepromoteRefusesReleased: promoting an entry that was released while
// the background rewrite ran is refused, and the freshly built code is
// freed rather than leaked.
func TestRepromoteRefusesReleased(t *testing.T) {
	m, w := newStencil(t)
	mgr := specmgr.New(m, specmgr.Policy{})

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	e, err := mgr.Specialize(cfg, w.Apply, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := e.Variants()[0]
	mgr.Release(e)

	baseline := m.JITFreeBytes()
	fcfg, fargs := w.ApplyConfig()
	out, rerr := brew.Do(m, &brew.Request{Config: fcfg, Fn: w.Apply, Args: fargs})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if mgr.RepromoteVariant(e, v, fcfg, out, rerr) {
		t.Fatal("RepromoteVariant accepted a released entry")
	}
	if free := m.JITFreeBytes(); free != baseline {
		t.Fatalf("refused RepromoteVariant leaked the fresh code: free %d, baseline %d", free, baseline)
	}
}

// TestRepromoteRefusesDeopted: an entry deoptimized (frozen-region store)
// while the background rewrite ran keeps routing to the original — the
// stale promotion is refused and its code freed, because it was built
// against assumptions that no longer hold.
func TestRepromoteRefusesDeopted(t *testing.T) {
	m, w := newStencil(t)
	poke := loadPoke(t, m)
	mgr := specmgr.New(m, specmgr.Policy{})

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	e, err := mgr.Specialize(cfg, w.Apply, args, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The background rewrite races a mutation of the frozen descriptor:
	// the rewrite snapshot here is taken before the store, so its code
	// bakes in the stale coefficient. (Deoptimization itself frees no
	// code, so after the refused swap frees the stale rewrite the JIT
	// space must be exactly back at this baseline.)
	baseline := m.JITFreeBytes()
	fcfg, fargs := w.ApplyConfig()
	out, rerr := brew.Do(m, &brew.Request{Config: fcfg, Fn: w.Apply, Args: fargs})
	if rerr != nil {
		t.Fatal(rerr)
	}
	v := e.Variants()[0]
	if _, err := m.CallFloat(poke, []uint64{w.S5 + 8}, []float64{-0.5}); err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Deopted(); !d {
		t.Fatal("frozen store did not deoptimize the entry")
	}

	if mgr.RepromoteVariant(e, v, fcfg, out, rerr) {
		t.Fatal("RepromoteVariant accepted a deoptimized entry")
	}
	if free := m.JITFreeBytes(); free != baseline {
		t.Fatalf("refused RepromoteVariant leaked the fresh code: free %d, baseline %d", free, baseline)
	}

	// The entry still serves the original, which sees the new coefficient.
	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(e.Addr(), callArgs, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("deopted entry = %g, %v; want %g", got, err, want)
	}
}
