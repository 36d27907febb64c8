package specmgr_test

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/specmgr"
)

// TestAdoptPromote covers the rewrite-behind lifecycle: a pending entry
// routes to the original function, InstallVariant hot-patches the stub,
// and the same caller-held address starts running specialized code.
func TestAdoptPromote(t *testing.T) {
	m, w := newStencil(t)
	mgr := specmgr.New(m, specmgr.Policy{})

	cfg, args := w.ApplyConfig()
	e := mgr.AdoptPending(cfg, w.Apply, args, nil, nil)
	if !e.Pending() || e.Degraded() {
		t.Fatalf("fresh entry: pending=%v degraded=%v", e.Pending(), e.Degraded())
	}
	addr := e.Addr()
	if addr == w.Apply {
		t.Fatal("adopted entry has no patchable stub")
	}
	// Pending: the stub must route to the original function and agree
	// with calling it directly.
	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.CallFloat(addr, callArgs, nil); err != nil || got != want {
		t.Fatalf("pending call = %g, %v; want %g", got, err, want)
	}

	out, rerr := brew.Do(m, &brew.Request{
		Config: cfg, Fn: w.Apply, Args: args, Mode: brew.ModeDegrade,
	})
	if rerr != nil {
		t.Fatalf("Do: %v", rerr)
	}
	v, ok := mgr.InstallVariant(e, cfg, nil, args, nil, out, nil)
	if !ok {
		t.Fatal("InstallVariant reported failure for a successful outcome")
	}
	if e.Pending() || e.Degraded() {
		t.Fatalf("promoted entry: pending=%v degraded=%v", e.Pending(), e.Degraded())
	}
	if e.Result() != out.Result || v.Result() != out.Result {
		t.Fatal("promoted entry does not carry the rewrite result")
	}
	if e.Addr() != addr {
		t.Fatal("promotion changed the handed-out address")
	}
	// The same address now runs the specialization; results stay correct.
	if got, err := m.CallFloat(addr, callArgs, nil); err != nil || got != want {
		t.Fatalf("promoted call = %g, %v; want %g", got, err, want)
	}
}

// TestAdoptPromoteDegraded: a degraded outcome leaves the entry at generic
// speed with the degradation reason, and never installs code.
func TestAdoptPromoteDegraded(t *testing.T) {
	m, w := newStencil(t)
	mgr := specmgr.New(m, specmgr.Policy{})

	cfg, args := w.ApplyConfig()
	cfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			return brew.ErrUnsupported
		}
		return nil
	}
	e := mgr.AdoptPending(cfg, w.Apply, args, nil, nil)
	out, rerr := brew.Do(m, &brew.Request{
		Config: cfg, Fn: w.Apply, Args: args, Mode: brew.ModeDegrade,
	})
	if rerr == nil {
		t.Fatal("expected a degraded outcome")
	}
	if _, ok := mgr.InstallVariant(e, cfg, nil, args, nil, out, rerr); ok {
		t.Fatal("InstallVariant succeeded on a degraded outcome")
	}
	if e.Pending() || !e.Degraded() {
		t.Fatalf("entry after degraded promote: pending=%v degraded=%v", e.Pending(), e.Degraded())
	}
	if _, reason := e.Deopted(); reason != brew.ReasonUnsupported {
		t.Fatalf("reason = %q, want %q", reason, brew.ReasonUnsupported)
	}
	cell := w.M1 + uint64((gridXS+1)*8)
	if _, err := m.CallFloat(e.Addr(), []uint64{cell, args[1], args[2]}, nil); err != nil {
		t.Fatalf("degraded entry call: %v", err)
	}
	mgr.Release(e)
}

// TestAdoptReleaseBeforePromote: releasing a pending entry makes
// InstallVariant free the fresh code instead of leaking it.
func TestAdoptReleaseBeforePromote(t *testing.T) {
	m, w := newStencil(t)
	mgr := specmgr.New(m, specmgr.Policy{})
	baseline := m.JITFreeBytes()

	cfg, args := w.ApplyConfig()
	e := mgr.AdoptPending(cfg, w.Apply, args, nil, nil)
	out, rerr := brew.Do(m, &brew.Request{
		Config: cfg, Fn: w.Apply, Args: args, Mode: brew.ModeDegrade,
	})
	if rerr != nil {
		t.Fatalf("Do: %v", rerr)
	}
	mgr.Release(e)
	if _, ok := mgr.InstallVariant(e, cfg, nil, args, nil, out, nil); ok {
		t.Fatal("InstallVariant succeeded on a released entry")
	}
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes: free %d, baseline %d", got, baseline)
	}
}

// TestAdoptCoResident: detached entries allow several specializations of
// the same function to live side by side — the per-function table slot
// stays untouched.
func TestAdoptCoResident(t *testing.T) {
	m, w := newStencil(t)
	mgr := specmgr.New(m, specmgr.Policy{MaxLive: 1})

	cfg, args := w.ApplyConfig()
	var entries []*specmgr.Entry
	for i := 0; i < 3; i++ {
		e := mgr.AdoptPending(cfg, w.Apply, args, nil, nil)
		out, rerr := brew.Do(m, &brew.Request{
			Config: cfg, Fn: w.Apply, Args: args, Mode: brew.ModeDegrade,
		})
		if rerr != nil {
			t.Fatalf("Do %d: %v", i, rerr)
		}
		if _, ok := mgr.InstallVariant(e, cfg, nil, args, nil, out, nil); !ok {
			t.Fatalf("InstallVariant %d failed", i)
		}
		entries = append(entries, e)
	}
	if mgr.Len() != 0 {
		t.Fatalf("detached entries occupied the table: Len = %d", mgr.Len())
	}
	cell := w.M1 + uint64((gridXS+1)*8)
	for i, e := range entries {
		if e.Degraded() {
			t.Fatalf("entry %d degraded (MaxLive eviction reached detached entries?)", i)
		}
		if _, err := m.CallFloat(e.Addr(), []uint64{cell, args[1], args[2]}, nil); err != nil {
			t.Fatalf("entry %d call: %v", i, err)
		}
	}
	for _, e := range entries {
		mgr.Release(e)
	}
}
