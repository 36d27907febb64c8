package brewsvc_test

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/minc"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

const polySrc = `
long poly(long x, long k) {
    long r = 1;
    for (long i = 0; i < k; i++) { r = r * x + i; }
    return r;
}
`

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

// TestSiblingVariantsShareEntry: requests differing only in guard values
// land in one variant-table entry — one stable stub address dispatching
// every hot class, with unspecialized values falling through to the
// original.
func TestSiblingVariantsShareEntry(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2))
	defer svc.Close()

	guard := func(k uint64) []brew.ParamGuard {
		return []brew.ParamGuard{{Param: 2, Value: k}}
	}
	var outs []brewsvc.Outcome
	for _, k := range []uint64{3, 5, 9} {
		out := svc.Do(&brewsvc.Request{
			Config: brew.NewConfig(), Fn: fn, Guards: guard(k),
			Args: []uint64{0, 0},
		})
		if out.Degraded {
			t.Fatalf("k=%d degraded: %s (%v)", k, out.Reason, out.Err)
		}
		outs = append(outs, out)
	}

	e := outs[0].Entry
	for i, out := range outs {
		if out.Entry != e {
			t.Fatalf("request %d got entry %p, want shared %p", i, out.Entry, e)
		}
		if out.Addr != e.Addr() {
			t.Fatalf("request %d addr %#x, want stable %#x", i, out.Addr, e.Addr())
		}
		if out.Variant == nil || !out.Variant.Live() {
			t.Fatalf("request %d has no live variant", i)
		}
		for j := 0; j < i; j++ {
			if out.Variant == outs[j].Variant {
				t.Fatalf("requests %d and %d share a variant", i, j)
			}
		}
	}
	if n := len(e.Variants()); n != 3 {
		t.Fatalf("variant table size = %d, want 3", n)
	}
	if st := svc.Stats(); st.Traces != 3 {
		t.Fatalf("traces = %d, want 3 (one per guard value)", st.Traces)
	}

	// A repeated request is a cache hit on the same variant.
	again := svc.Do(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn, Guards: guard(5),
		Args: []uint64{0, 0},
	})
	if !again.CacheHit || again.Variant != outs[1].Variant {
		t.Fatalf("repeat k=5: cacheHit=%v variant=%p, want hit on %p",
			again.CacheHit, again.Variant, outs[1].Variant)
	}

	// Dispatch correctness through the shared stub, misses included.
	for _, x := range []uint64{0, 2, 7} {
		for _, k := range []uint64{0, 3, 5, 7, 9, 12} {
			got, err := m.Call(e.Addr(), x, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := polyRef(x, k); got != want {
				t.Fatalf("poly(%d,%d) = %d, want %d", x, k, got, want)
			}
		}
	}
}

// TestVariantTableLimitEvictsSibling: with Policy.MaxVariants = 1 a new
// guard class evicts its sibling from the table; the cache's hit-path
// liveness check then notices the dead variant and re-traces instead of
// serving a slot that falls through to the generic original.
func TestVariantTableLimitEvictsSibling(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPolicy(specmgr.Policy{MaxVariants: 1}))
	defer svc.Close()

	req := func(k uint64) *brewsvc.Request {
		return &brewsvc.Request{
			Config: brew.NewConfig(), Fn: fn,
			Guards: []brew.ParamGuard{{Param: 2, Value: k}},
			Args:   []uint64{0, 0},
		}
	}
	out3 := svc.Do(req(3))
	if out3.Degraded {
		t.Fatalf("k=3 degraded: %v", out3.Err)
	}
	out5 := svc.Do(req(5))
	if out5.Degraded {
		t.Fatalf("k=5 degraded: %v", out5.Err)
	}
	if out5.Entry != out3.Entry {
		t.Fatalf("siblings split entries: %p vs %p", out5.Entry, out3.Entry)
	}
	if out3.Variant.Live() {
		t.Fatal("k=3 variant survived a MaxVariants=1 table")
	}
	if n := len(out3.Entry.Variants()); n != 1 {
		t.Fatalf("variant table size = %d, want 1", n)
	}

	// The k=3 slot is dead: the next k=3 request must not be served from
	// the cache, and its re-trace evicts k=5 in turn.
	traces0 := svc.Stats().Traces
	out3b := svc.Do(req(3))
	if out3b.Degraded {
		t.Fatalf("k=3 re-request degraded: %v", out3b.Err)
	}
	if out3b.CacheHit {
		t.Fatal("dead variant served from the cache")
	}
	if d := svc.Stats().Traces - traces0; d != 1 {
		t.Fatalf("re-request traced %d times, want 1", d)
	}
	if !out3b.Variant.Live() || out3b.Variant == out3.Variant {
		t.Fatal("re-request did not install a fresh variant")
	}

	// Correctness throughout: the surviving class is specialized, the
	// evicted one falls through to the original.
	for _, k := range []uint64{3, 5, 7} {
		got, err := m.Call(out3b.Entry.Addr(), 2, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := polyRef(2, k); got != want {
			t.Fatalf("poly(2,%d) = %d, want %d", k, got, want)
		}
	}
}

// TestDispatchSampleAttribution: profiler samples landing in the entry's
// inline-cache dispatch chain count toward the entry's promotion signal
// (regression: the sample index used to cover only variant bodies, so
// dispatch-heavy guarded entries never got hot).
func TestDispatchSampleAttribution(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	const after = 4
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPromotion(after))
	defer svc.Close()

	qcfg := brew.NewConfig()
	qcfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{
		Config: qcfg, Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 5}},
		Args:   []uint64{0, 0},
	})
	if out.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", out.Reason, out.Err)
	}
	e, v := out.Entry, out.Variant
	if got := v.Tier(); got != brew.EffortQuick {
		t.Fatalf("installed tier %s, want quick", got)
	}
	lo, hi := e.DispatchRange()
	if hi <= lo {
		t.Fatal("guarded entry has no dispatch chain")
	}

	// Samples on the chain: entry hotness, not any one variant's.
	for i := 0; i < after; i++ {
		svc.NoteSample(lo)
	}
	if _, samples := e.Hotness(); samples != after {
		t.Fatalf("entry samples = %d, want %d", samples, after)
	}
	if _, samples := v.Hotness(); samples != 0 {
		t.Fatalf("variant samples = %d, want 0 (pc was in the chain)", samples)
	}

	// The sole tracked variant of the entry inherits the entry-level
	// signal and promotes.
	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		t.Fatalf("%d promotions enqueued, want 1", tks.Len())
	}
	if p := tks.Tickets()[0].Outcome(); p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}
	if got := v.Tier(); got != brew.EffortFull {
		t.Fatalf("post-promotion tier %s, want full", got)
	}
	got, err := m.Call(e.Addr(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := polyRef(3, 5); got != want {
		t.Fatalf("promoted poly(3,5) = %d, want %d", got, want)
	}
}

// TestVariantTableBeatsSingleVariant is E7: a call site cycling through
// three hot guard classes in short blocks. With a three-slot variant
// table every class traces once and the inline-cache stub serves every
// later block; with one slot every class switch evicts the resident
// variant and the returning class re-traces. The deterministic per-caller
// cost — executed cycles plus rewrite work units (traced instructions and
// pass scans) per trace, over the calls — must be at least 2x lower with
// the table. A class no variant covers falls through the stub to the
// original: same result, in no fewer cycles than the original.
func TestVariantTableBeatsSingleVariant(t *testing.T) {
	classes := []uint64{3, 5, 9}
	const rounds, block = 10, 2
	guard := func(k uint64) []brew.ParamGuard { return []brew.ParamGuard{{Param: 2, Value: k}} }

	// The rewrite work of one trace, probed on a machine of its own.
	mt := vm.MustNew()
	probe, err := brew.Do(mt, &brew.Request{
		Config: brew.NewConfig(), Fn: loadPoly(t, mt), Guards: guard(classes[0]), Args: []uint64{0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	work := uint64(probe.Result.Report.TracedInstrs + probe.Result.Report.PassWork)

	type mix struct {
		m                     *vm.Machine
		svc                   *brewsvc.Service
		fn, stub              uint64
		traces, cycles, calls uint64
	}
	run := func(maxVariants int) *mix {
		m := vm.MustNew()
		r := &mix{m: m, fn: loadPoly(t, m)}
		r.svc = brewsvc.Open(m, brewsvc.WithWorkers(1),
			brewsvc.WithPolicy(specmgr.Policy{MaxVariants: maxVariants}))
		t.Cleanup(r.svc.Close)
		for round := 0; round < rounds; round++ {
			for _, k := range classes {
				out := r.svc.Do(&brewsvc.Request{
					Config: brew.NewConfig(), Fn: r.fn, Guards: guard(k), Args: []uint64{0, 0},
				})
				if out.Degraded {
					t.Fatalf("MaxVariants=%d, k=%d degraded: %s (%v)", maxVariants, k, out.Reason, out.Err)
				}
				r.stub = out.Addr
				c0 := m.Stats.Cycles
				for j := 0; j < block; j++ {
					x := uint64(round+j) % 7
					got, err := m.Call(out.Addr, x, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := polyRef(x, k); got != want {
						t.Fatalf("poly(%d,%d) = %d, want %d", x, k, got, want)
					}
					r.calls++
				}
				r.cycles += m.Stats.Cycles - c0
			}
		}
		r.traces = r.svc.Stats().Traces
		return r
	}
	single, table := run(1), run(len(classes))
	if table.traces != uint64(len(classes)) {
		t.Fatalf("variant table traced %d times for %d classes, want one per class", table.traces, len(classes))
	}
	perSingle := (single.cycles + single.traces*work) / single.calls
	perTable := (table.cycles + table.traces*work) / table.calls
	if perSingle < 2*perTable {
		t.Fatalf("single-variant per-caller cost %d is not >= 2x the variant table's %d (%d vs %d traces)",
			perSingle, perTable, single.traces, table.traces)
	}

	// Full miss: k=7 has no variant.
	const missK = 7
	m := table.m
	c0 := m.Stats.Cycles
	viaStub, err := m.Call(table.stub, 4, missK)
	if err != nil {
		t.Fatal(err)
	}
	stubCycles := m.Stats.Cycles - c0
	c0 = m.Stats.Cycles
	orig, err := m.Call(table.fn, 4, missK)
	if err != nil {
		t.Fatal(err)
	}
	origCycles := m.Stats.Cycles - c0
	if want := polyRef(4, missK); viaStub != want || orig != want {
		t.Fatalf("full miss through the stub = %d, original = %d, want %d", viaStub, orig, want)
	}
	if stubCycles < origCycles {
		t.Fatalf("full miss through the stub took %d cycles, fewer than the original's %d", stubCycles, origCycles)
	}
}
