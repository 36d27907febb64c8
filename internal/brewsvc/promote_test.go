package brewsvc_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// TestPromotionHotSwapViaCalls drives the stub-side half of the hotness
// signal: managed calls through a tier-0 entry accumulate hotness, the
// threshold makes the entry due, and the next pump hot-swaps a full-effort
// body behind the same stable address.
func TestPromotionHotSwapViaCalls(t *testing.T) {
	m, w := newStencil(t)
	const after = 8
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2), brewsvc.WithPromotion(after))
	defer svc.Close()

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", out.Reason, out.Err)
	}
	e := out.Entry
	if got := e.Tier(); got != brew.EffortQuick {
		t.Fatalf("installed tier %s, want quick", got)
	}
	quickAddr := e.Result().Addr

	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One call short of the threshold: a pump must not promote.
	for i := 0; i < after-1; i++ {
		got, err := e.CallFloat(callArgs, nil)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Fatalf("tier-0 call %d = %g, %v; want %g", i, got, err, want)
		}
	}
	if tks := svc.PumpPromotions(); tks.Len() != 0 {
		t.Fatalf("promoted after %d calls, threshold is %d", after-1, after)
	}

	// The call crossing the threshold makes the entry due.
	if _, err := e.CallFloat(callArgs, nil); err != nil {
		t.Fatal(err)
	}
	if calls, samples := e.Hotness(); calls != after || samples != 0 {
		t.Fatalf("hotness = %d calls + %d samples, want %d + 0", calls, samples, after)
	}
	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		t.Fatalf("%d promotions enqueued, want 1", tks.Len())
	}
	if p := tks.Tickets()[0].Outcome(); p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}
	if got := e.Tier(); got != brew.EffortFull {
		t.Fatalf("post-promotion tier %s, want full", got)
	}
	if e.Result().Addr == quickAddr {
		t.Fatal("promotion completed without installing a new body")
	}
	if st := svc.Stats(); st.TierPromotions != 1 || st.TierDemotions != 0 {
		t.Fatalf("promotion stats %d/%d, want 1/0", st.TierPromotions, st.TierDemotions)
	}

	// One shot: the entry left the tracking set, further pumps are no-ops.
	if tks := svc.PumpPromotions(); tks.Len() != 0 {
		t.Fatalf("entry promoted twice")
	}

	// The stable address callers hold now runs the optimized body.
	got, err := m.CallFloat(out.Addr, callArgs, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("promoted call = %g, %v; want %g", got, err, want)
	}
}

// TestSubmitDoesNotAutoPromote: a due tier-0 entry must NOT be promoted
// behind a submitter's back — admissions never start promotion flights,
// because nobody could await them and the host might resume emulated
// execution while the background re-rewrite traces machine memory. Only
// an explicit PumpPromotions (whose tickets the host awaits) may start
// the flight.
func TestSubmitDoesNotAutoPromote(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPromotion(1))
	defer svc.Close()

	qcfg, qargs := w.ApplyConfig()
	qcfg.Effort = brew.EffortQuick
	qout := svc.Do(&brewsvc.Request{Config: qcfg, Fn: w.Apply, Args: qargs})
	if qout.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", qout.Reason, qout.Err)
	}
	qout.Entry.NoteSample() // the entry is now due for promotion

	// An unrelated admission runs to completion without touching it.
	fcfg, fargs := w.ApplyConfig()
	if fout := svc.Do(&brewsvc.Request{Config: fcfg, Fn: w.Apply, Args: fargs}); fout.Degraded {
		t.Fatalf("full submit degraded: %s (%v)", fout.Reason, fout.Err)
	}

	// The entry must still be unqueued: the explicit pump — and only it —
	// enqueues the flight. Had Submit auto-pumped, the one-shot queued
	// flag would already be set and this pump would return nothing.
	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		t.Fatalf("%d promotions from the explicit pump, want 1 (a Submit started the flight)", tks.Len())
	}
	if p := tks.Tickets()[0].Outcome(); p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}
	if got := qout.Entry.Tier(); got != brew.EffortFull {
		t.Fatalf("post-promotion tier %s, want full", got)
	}
}

// TestNoteSampleAttribution drives the lock-free sample index directly:
// PCs inside a tracked tier-0 body land on that entry's sample counter,
// PCs on either side of the range do not.
func TestNoteSampleAttribution(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPromotion(1<<20))
	defer svc.Close()

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", out.Reason, out.Err)
	}
	res := out.Entry.Result()
	lo, hi := res.Addr, res.Addr+uint64(res.CodeSize)

	svc.NoteSample(lo)     // first byte: hit
	svc.NoteSample(hi - 1) // last byte: hit
	svc.NoteSample(hi)     // one past the end: miss
	svc.NoteSample(lo - 1) // just before: miss
	if _, samples := out.Entry.Hotness(); samples != 2 {
		t.Fatalf("attributed %d samples, want 2", samples)
	}
}

// TestPromotionNoTornAddress hammers the entry's read API from many
// goroutines while a promotion hot-swaps the body underneath: no reader
// may ever observe a torn or intermediate specialized address (only the
// tier-0 body or the tier-1 body), and the entry's stable address must
// not move. Run under -race this also validates the locking on the
// RepromoteVariant swap path.
func TestPromotionNoTornAddress(t *testing.T) {
	m, w := newStencil(t)
	const after = 2
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2), brewsvc.WithPromotion(after))
	defer svc.Close()

	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", out.Reason, out.Err)
	}
	e := out.Entry
	quickAddr := e.Result().Addr
	stub := out.Addr
	for i := 0; i < after; i++ {
		e.NoteSample()
	}

	const readers = 8
	stop := make(chan struct{})
	bodies := make([]map[uint64]bool, readers)
	stubs := make([]map[uint64]bool, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		bodies[r], stubs[r] = map[uint64]bool{}, map[uint64]bool{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bodies[r][e.Result().Addr] = true
				stubs[r][e.Addr()] = true
				_ = e.Tier()
				_, _ = e.Hotness()
			}
		}(r)
	}

	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		close(stop)
		wg.Wait()
		t.Fatalf("%d promotions enqueued, want 1", tks.Len())
	}
	pout := tks.Tickets()[0].Outcome() // blocks until the hot-swap happened
	close(stop)
	wg.Wait()

	if pout.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", pout.Reason, pout.Err)
	}
	fullAddr := e.Result().Addr
	if fullAddr == quickAddr {
		t.Fatal("promotion completed without installing a new body")
	}
	for r := 0; r < readers; r++ {
		for a := range bodies[r] {
			if a != quickAddr && a != fullAddr {
				t.Fatalf("reader %d observed torn body address %#x (tier-0 %#x, tier-1 %#x)",
					r, a, quickAddr, fullAddr)
			}
		}
		for a := range stubs[r] {
			if a != stub {
				t.Fatalf("reader %d observed moved stable address %#x, want %#x", r, a, stub)
			}
		}
	}
}

// TestPromotionDistinctEffortKeys: identical assumptions requested at two
// efforts are two distinct coalescing keys — a mixed concurrent burst
// collapses to exactly one flight per effort, never one shared flight.
func TestPromotionDistinctEffortKeys(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(4))
	defer svc.Close()

	const n = 32
	outs := make([]brewsvc.Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg, args := applyVariant(w, i)
			if i%2 == 1 {
				cfg.Effort = brew.EffortQuick
			}
			outs[i] = svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		}(i)
	}
	wg.Wait()

	for i, o := range outs {
		if o.Degraded {
			t.Fatalf("caller %d degraded: %s (%v)", i, o.Reason, o.Err)
		}
	}
	if st := svc.Stats(); st.Traces != 2 {
		t.Fatalf("traces = %d, want exactly 2 (one per effort)", st.Traces)
	}
	fullE, quickE := outs[0].Entry, outs[1].Entry
	if fullE == quickE {
		t.Fatal("efforts coalesced onto one entry")
	}
	if got := fullE.Tier(); got != brew.EffortFull {
		t.Fatalf("full-effort entry tier %s", got)
	}
	if got := quickE.Tier(); got != brew.EffortQuick {
		t.Fatalf("quick-effort entry tier %s", got)
	}
	for i, o := range outs {
		want := fullE
		if i%2 == 1 {
			want = quickE
		}
		if o.Entry != want {
			t.Fatalf("caller %d landed on the wrong effort's entry", i)
		}
	}
}

// TestCacheNeverServesQuickToFull: an explicit EffortFull request must
// never be answered with cached tier-0 code; and after promotion, the
// tier-0 cache slot holding tier-1 code is an upgrade for quick callers,
// not a second full-effort slot.
func TestCacheNeverServesQuickToFull(t *testing.T) {
	m, w := newStencil(t)
	const after = 4
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPromotion(after))
	defer svc.Close()

	qcfg, qargs := w.ApplyConfig()
	qcfg.Effort = brew.EffortQuick
	qout := svc.Do(&brewsvc.Request{Config: qcfg, Fn: w.Apply, Args: qargs})
	if qout.Degraded || qout.CacheHit {
		t.Fatalf("tier-0 prime: degraded=%v cacheHit=%v", qout.Degraded, qout.CacheHit)
	}

	fcfg, fargs := w.ApplyConfig()
	fout := svc.Do(&brewsvc.Request{Config: fcfg, Fn: w.Apply, Args: fargs})
	if fout.Degraded {
		t.Fatalf("full request degraded: %s (%v)", fout.Reason, fout.Err)
	}
	if fout.CacheHit || fout.Coalesced {
		t.Fatalf("EffortFull request served from the tier-0 cache/flight (cacheHit=%v coalesced=%v)",
			fout.CacheHit, fout.Coalesced)
	}
	if fout.Entry == qout.Entry {
		t.Fatal("EffortFull request landed on the tier-0 entry")
	}
	if got := fout.Entry.Tier(); got != brew.EffortFull {
		t.Fatalf("full request got tier %s code", got)
	}
	if st := svc.Stats(); st.Traces != 2 {
		t.Fatalf("traces = %d, want 2", st.Traces)
	}

	// Promote the tier-0 entry via the sample-side counter.
	for i := 0; i < after; i++ {
		qout.Entry.NoteSample()
	}
	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		t.Fatalf("%d promotions enqueued, want 1", tks.Len())
	}
	if p := tks.Tickets()[0].Outcome(); p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}
	if got := qout.Entry.Tier(); got != brew.EffortFull {
		t.Fatalf("post-promotion tier %s, want full", got)
	}

	// Repeat requests at each effort hit their own cache slots: the quick
	// key now serves the promoted (tier-1) body, the full key its own.
	q2 := svc.Do(&brewsvc.Request{Config: qcfg, Fn: w.Apply, Args: qargs})
	if !q2.CacheHit || q2.Entry != qout.Entry {
		t.Fatalf("quick repeat: cacheHit=%v entry match=%v", q2.CacheHit, q2.Entry == qout.Entry)
	}
	f2 := svc.Do(&brewsvc.Request{Config: fcfg, Fn: w.Apply, Args: fargs})
	if !f2.CacheHit || f2.Entry != fout.Entry {
		t.Fatalf("full repeat: cacheHit=%v entry match=%v", f2.CacheHit, f2.Entry == fout.Entry)
	}
	// 2 demand traces + 1 background promotion re-rewrite; the repeat
	// requests added none.
	if st := svc.Stats(); st.Traces != 3 {
		t.Fatalf("traces = %d after repeats, want 3", st.Traces)
	}
}

// steadyCycles runs the steady-state protocol the tier comparisons share:
// reset the matrices, one unmeasured sweep to warm the data cache, then
// iters measured sweeps of kernel, checksum-verified against the host
// golden. It returns the measured sweeps' emulated cycles.
func steadyCycles(t *testing.T, w *stencil.Workload, kernel uint64, iters int) uint64 {
	t.Helper()
	if err := w.ResetMatrices(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunSweeps(kernel, false, 1); err != nil {
		t.Fatal(err)
	}
	c0 := w.M.Stats.Cycles
	sum, err := w.RunSweeps(kernel, false, iters)
	if err != nil {
		t.Fatal(err)
	}
	if want := w.Golden(iters); math.Abs(sum-want) > 1e-9 {
		t.Fatalf("steady-state checksum %g, want %g", sum, want)
	}
	return w.M.Stats.Cycles - c0
}

// TestPromotionViaProfilerMatchesFullTier is E6e, the profiler half of the
// hotness signal end to end: a tier-0 entry installed through the service,
// the machine's sampling profiler wired in with AttachHotness, one sweep
// through the stable address crosses the threshold, and the pumped
// promotion hot-swaps a full-effort body whose steady-state cycles equal a
// direct full-effort rewrite's exactly. Instruction fetch does not touch
// the data-cache model, so identical code at another JIT address costs
// identical cycles; any drift means promotion installed different code.
func TestPromotionViaProfilerMatchesFullTier(t *testing.T) {
	const iters = 3
	_, wf := newStencil(t)
	cfgF, argsF := wf.ApplyConfig()
	outF, err := brew.Do(wf.M, &brew.Request{Config: cfgF, Fn: wf.Apply, Args: argsF})
	if err != nil {
		t.Fatal(err)
	}
	direct := steadyCycles(t, wf, outF.Result.Addr, iters)

	m, w := newStencil(t)
	const after = 32
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2), brewsvc.WithPromotion(after))
	defer svc.Close()
	cfg, args := w.ApplyConfig()
	cfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("tier-0 submit degraded: %s (%v)", out.Reason, out.Err)
	}
	if got := out.Entry.Tier(); got != brew.EffortQuick {
		t.Fatalf("installed tier %s, want quick", got)
	}

	prof := vm.NewProfiler(128, nil)
	m.AttachProfiler(prof)
	svc.AttachHotness(prof)
	if _, err := w.RunSweeps(out.Addr, false, 1); err != nil {
		t.Fatal(err)
	}
	m.AttachProfiler(nil)
	if calls, samples := out.Entry.Hotness(); samples == 0 || calls+samples < after {
		t.Fatalf("hotness %d calls + %d samples after a sweep, want samples and >= %d in all",
			calls, samples, after)
	}

	batch := svc.PumpPromotions()
	if batch.Len() != 1 {
		t.Fatalf("%d promotions enqueued, want 1", batch.Len())
	}
	pouts, err := batch.AwaitAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p := pouts[0]; p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}
	if got := out.Entry.Tier(); got != brew.EffortFull {
		t.Fatalf("post-promotion tier %s, want full", got)
	}
	if promoted := steadyCycles(t, w, out.Entry.Result().Addr, iters); promoted != direct {
		t.Fatalf("post-promotion steady state %d cycles != full-tier direct %d", promoted, direct)
	}
}
