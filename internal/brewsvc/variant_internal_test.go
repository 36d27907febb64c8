package brewsvc

import (
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

// TestCachePutSameKeyCollision: a same-key put returns the displaced slot
// as a victim and the slot serves the new variant afterwards; CLOCK
// (second chance) eviction never selects the just-inserted variant;
// remove only drops a slot that still serves the given variant.
func TestCachePutSameKeyCollision(t *testing.T) {
	c := newCache(1, 2)
	e := new(specmgr.Entry)
	v1, v2, v3 := new(specmgr.Variant), new(specmgr.Variant), new(specmgr.Variant)
	k1 := cacheKey{fn: 1, cfg: 2, vals: 3}
	k2 := cacheKey{fn: 1, cfg: 2, vals: 4}
	k3 := cacheKey{fn: 1, cfg: 2, vals: 5}

	if ev := c.put(k1, cacheVal{e: e, v: v1}); len(ev) != 0 {
		t.Fatalf("fresh put evicted %d slots", len(ev))
	}
	ev := c.put(k1, cacheVal{e: e, v: v2})
	if len(ev) != 1 || ev[0].v != v1 {
		t.Fatalf("same-key put victims = %v, want the displaced v1 slot", ev)
	}
	got, ok := c.get(k1)
	if !ok || got.v != v2 {
		t.Fatalf("slot serves %p, want the newer v2 %p", got.v, v2)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}

	if c.remove(k1, v1) {
		t.Error("remove dropped a slot serving a newer variant")
	}
	if !c.remove(k1, v2) {
		t.Error("remove failed on the slot's current variant")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d after remove, want 0", c.len())
	}

	// Over capacity, the slot without a second chance goes — never the
	// just-inserted one.
	c.put(k1, cacheVal{e: e, v: v1})
	c.put(k2, cacheVal{e: e, v: v2})
	c.get(k1) // set k1's reference bit so the sweep passes over it to k2
	ev = c.put(k3, cacheVal{e: e, v: v3})
	if len(ev) != 1 || ev[0].v != v2 {
		t.Fatalf("capacity victims = %v, want the unreferenced v2 slot", ev)
	}
	if got, ok := c.get(k3); !ok || got.v != v3 {
		t.Fatal("just-inserted slot missing after CLOCK eviction")
	}
}

const racePolySrc = `
long poly(long x, long k) {
    long r = 1;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
`

// TestPumpVsEvictionRace runs PumpPromotions concurrently with
// Submit-driven cache eviction of the variants being promoted (a
// one-slot cache and distinct guard values force continual eviction).
// Run under -race. The invariants: everything completes (no deadlock on
// the Service.mu -> Manager.mu order), no tracked variant is left with a
// stuck queued flag, and Close returns every JIT byte.
func TestPumpVsEvictionRace(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, racePolySrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := l.FuncAddr("poly")
	if err != nil {
		t.Fatal(err)
	}
	base := m.JITFreeBytes()

	s := Open(m, WithWorkers(2), WithPromotion(1), WithCache(1, 1))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			cfg := brew.NewConfig()
			cfg.Effort = brew.EffortQuick
			tk := s.Submit(&Request{
				Config: cfg, Fn: fn,
				Guards: []brew.ParamGuard{{Param: 2, Value: uint64(i % 6)}},
				Args:   []uint64{0, 0},
			})
			out := tk.Outcome()
			if out.Variant != nil {
				out.Variant.NoteSample() // immediately due for promotion
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			for _, tk := range s.PumpPromotions().Tickets() {
				tk.Outcome()
			}
		}
	}()
	wg.Wait()

	// Drain stragglers that became due after the pump goroutine's last
	// round, then check the tracking set's integrity.
	for _, tk := range s.PumpPromotions().Tickets() {
		tk.Outcome()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for v, tr := range sh.tracked {
			if tr.queued {
				t.Errorf("tracked variant %p left with a stuck queued flag", v)
			}
			if !v.Live() {
				t.Errorf("dead variant %p still tracked", v)
			}
		}
		sh.mu.Unlock()
	}

	s.Close()
	if free := m.JITFreeBytes(); free != base {
		t.Fatalf("leaked JIT bytes after Close: free %d, baseline %d", free, base)
	}
}
