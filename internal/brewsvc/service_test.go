package brewsvc_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/stencil"
	"repro/internal/vm"
)

const gridXS, gridYS = 16, 12

func newStencil(t *testing.T) (*vm.Machine, *stencil.Workload) {
	t.Helper()
	m := vm.MustNew()
	w, err := stencil.New(m, gridXS, gridYS)
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// applyVariant builds the E1c apply configuration with a call order varied
// by seed: semantically identical configs must fingerprint — and therefore
// coalesce — identically regardless of construction order.
func applyVariant(w *stencil.Workload, seed int) (*brew.Config, []uint64) {
	cfg := brew.NewConfig()
	lo := brew.MemRange{Start: w.S5, End: w.S5 + 8}
	hi := brew.MemRange{Start: w.S5 + 8, End: w.S5 + 16}
	switch seed % 4 {
	case 0:
		cfg.SetParam(2, brew.ParamKnown).SetParamPtrToKnown(3, stencil.StructSSize)
		cfg.SetMemRange(lo.Start, lo.End).SetMemRange(hi.Start, hi.End)
	case 1:
		cfg.SetParamPtrToKnown(3, stencil.StructSSize).SetParam(2, brew.ParamKnown)
		cfg.SetMemRange(hi.Start, hi.End).SetMemRange(lo.Start, lo.End)
	case 2:
		cfg.SetMemRange(lo.Start, lo.End)
		cfg.SetParamPtrToKnown(3, stencil.StructSSize)
		cfg.SetMemRange(hi.Start, hi.End)
		cfg.SetParam(2, brew.ParamKnown)
	default:
		cfg.SetMemRange(hi.Start, hi.End).SetMemRange(lo.Start, lo.End)
		// Duplicate declaration: adds no assumption, must not split the key.
		cfg.SetMemRange(hi.Start, hi.End)
		cfg.SetParam(2, brew.ParamKnown).SetParamPtrToKnown(3, stencil.StructSSize)
	}
	return cfg, []uint64{0, uint64(w.XS), w.S5}
}

// TestCoalescing64 is the tentpole acceptance test: 64 goroutines
// requesting the same specialization (configs built in different call
// orders) trigger exactly one trace; every caller lands on the same
// specialized code and the bytes are identical for all of them.
func TestCoalescing64(t *testing.T) {
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()
	svc := brewsvc.Open(m, brewsvc.WithWorkers(4), brewsvc.WithQueueCap(128))

	const n = 64
	tickets := make([]*brewsvc.Ticket, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg, args := applyVariant(w, i)
			tickets[i] = svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		}(i)
	}
	wg.Wait()

	outs := make([]brewsvc.Outcome, n)
	for i, tk := range tickets {
		outs[i] = tk.Outcome()
		if outs[i].Degraded {
			t.Fatalf("caller %d degraded: %s (%v)", i, outs[i].Reason, outs[i].Err)
		}
	}

	st := svc.Stats()
	if st.Traces != 1 {
		t.Fatalf("traces = %d, want exactly 1 (coalescing failed)", st.Traces)
	}
	if shared := st.CoalesceHits + st.CacheHits; shared != n-1 {
		t.Fatalf("coalesce (%d) + cache (%d) hits = %d, want %d",
			st.CoalesceHits, st.CacheHits, shared, n-1)
	}

	// Identical code for every caller: same entry, same address, same
	// bytes read back from the machine.
	first := outs[0]
	code0, err := m.Mem.ReadBytes(first.Entry.Result().Addr, first.Entry.Result().CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(code0) == 0 {
		t.Fatal("specialized code is empty")
	}
	creators := 0
	for i, o := range outs {
		if o.Entry != first.Entry || o.Addr != first.Addr {
			t.Fatalf("caller %d got entry %p addr %#x, want %p %#x",
				i, o.Entry, o.Addr, first.Entry, first.Addr)
		}
		code, err := m.Mem.ReadBytes(o.Entry.Result().Addr, o.Entry.Result().CodeSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(code, code0) {
			t.Fatalf("caller %d observes different code bytes", i)
		}
		if !o.Coalesced && !o.CacheHit {
			creators++ // the one caller whose Submit started the flight
		}
	}
	if creators != 1 {
		t.Fatalf("%d callers started a flight, want exactly 1", creators)
	}

	// The shared specialization computes the right cells.
	cell := w.M1 + uint64((gridXS+1)*8)
	want, err := m.CallFloat(w.Apply, []uint64{cell, gridXS, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(first.Addr, []uint64{cell, gridXS, w.S5}, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("specialized cell = %g, %v; want %g", got, err, want)
	}

	// A follow-up burst is served entirely from the cache: zero traces.
	for i := 0; i < n; i++ {
		cfg, args := applyVariant(w, i)
		out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		if !out.CacheHit || out.Entry != first.Entry {
			t.Fatalf("repeat %d: cacheHit=%v entry=%p", i, out.CacheHit, out.Entry)
		}
	}
	if st := svc.Stats(); st.Traces != 1 {
		t.Fatalf("repeat burst re-traced: %d", st.Traces)
	}

	svc.Close()
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes after Close: free %d, baseline %d", got, baseline)
	}
}

// TestQueueFullDegrades: a full queue degrades the overflow request to the
// original function immediately — no deadlock, no blocking.
func TestQueueFullDegrades(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithQueueCap(2))
	defer svc.Close()

	// Wedge the single worker: an Inject hook blocking at SiteTrace (the
	// hook also makes the request uncoalescable, so it owns the worker).
	block := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	wedgeCfg, args := w.ApplyConfig()
	wedgeCfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			once.Do(func() { close(blocked) })
			<-block
		}
		return nil
	}
	wedge := svc.Submit(&brewsvc.Request{Config: wedgeCfg, Fn: w.Apply, Args: args})
	<-blocked // the worker is now inside the wedged rewrite

	// Fill the queue with distinct-key requests.
	fillers := make([]*brewsvc.Ticket, 2)
	for i := range fillers {
		cfg, args := w.ApplyConfig()
		cfg.MaxCodeBytes = (256 << 10) + (i+1)*16 // distinct fingerprints
		fillers[i] = svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	}

	// Overflow: must complete synchronously, degraded, queue-full.
	cfg, args2 := w.ApplyConfig()
	cfg.MaxCodeBytes = (256 << 10) + 1024
	over := svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args2})
	out, ready := over.TryOutcome()
	if !ready {
		t.Fatal("overflow submit did not complete immediately")
	}
	if !out.Degraded || out.Reason != brewsvc.ReasonQueueFull || !errors.Is(out.Err, brewsvc.ErrQueueFull) {
		t.Fatalf("overflow outcome = %+v, want queue-full degrade", out)
	}
	if out.Addr != w.Apply {
		t.Fatalf("overflow Addr = %#x, want original %#x", out.Addr, w.Apply)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}

	// Unblock; everything drains within the test timeout (no wedged queue).
	close(block)
	deadline := time.After(30 * time.Second)
	for i, tk := range append(fillers, wedge) {
		select {
		case <-tk.Done():
		case <-deadline:
			t.Fatalf("ticket %d never completed after unblock", i)
		}
	}
}

// TestPriorityOrder: with one worker, queued requests run high before
// normal before low regardless of submission order.
func TestPriorityOrder(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithQueueCap(16))
	defer svc.Close()

	block := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	wedgeCfg, args := w.ApplyConfig()
	wedgeCfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			once.Do(func() { close(blocked) })
			<-block
		}
		return nil
	}
	wedge := svc.Submit(&brewsvc.Request{Config: wedgeCfg, Fn: w.Apply, Args: args})
	<-blocked

	// Submission order low, normal, high; expected run order reversed.
	var mu sync.Mutex
	var order []brewsvc.Priority
	mk := func(p brewsvc.Priority) *brewsvc.Ticket {
		cfg, args := w.ApplyConfig()
		var once sync.Once
		cfg.Inject = func(site string) error {
			if site == brew.SiteTrace {
				once.Do(func() {
					mu.Lock()
					order = append(order, p)
					mu.Unlock()
				})
			}
			return nil
		}
		return svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args, Priority: p})
	}
	tickets := []*brewsvc.Ticket{
		mk(brewsvc.PriorityLow), mk(brewsvc.PriorityNormal), mk(brewsvc.PriorityHigh),
	}
	close(block)
	for _, tk := range tickets {
		if out := tk.Outcome(); out.Degraded {
			t.Fatalf("degraded: %s (%v)", out.Reason, out.Err)
		}
	}
	<-wedge.Done()

	mu.Lock()
	defer mu.Unlock()
	want := []brewsvc.Priority{brewsvc.PriorityHigh, brewsvc.PriorityNormal, brewsvc.PriorityLow}
	if len(order) != len(want) {
		t.Fatalf("ran %d requests, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order %v, want %v", order, want)
		}
	}
}

// TestBudgetIsolation: a budget-exhausted request degrades without
// poisoning the cache — the same assumptions under an adequate budget
// still specialize, and a degraded key retries on the next submit.
func TestBudgetIsolation(t *testing.T) {
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2))

	tiny, args := w.ApplyConfig()
	tiny.Budget = &brew.Budget{MaxTracedInstrs: 8}
	out := svc.Do(&brewsvc.Request{Config: tiny, Fn: w.Apply, Args: args})
	if !out.Degraded || out.Reason != brew.ReasonTraceBudget {
		t.Fatalf("tiny budget outcome = %+v, want trace-budget degrade", out)
	}
	if !errors.Is(out.Err, brew.ErrDegraded) || !errors.Is(out.Err, brew.ErrTraceTooLong) {
		t.Fatalf("tiny budget err = %v", out.Err)
	}

	// Same assumptions, no budget: distinct fingerprint, full success.
	ok, args2 := w.ApplyConfig()
	res := svc.Do(&brewsvc.Request{Config: ok, Fn: w.Apply, Args: args2})
	if res.Degraded || res.CacheHit {
		t.Fatalf("unbudgeted outcome = %+v", res)
	}

	// The degraded key was not cached: re-submitting it traces again.
	before := svc.Stats().Traces
	tiny2, args3 := w.ApplyConfig()
	tiny2.Budget = &brew.Budget{MaxTracedInstrs: 8}
	out2 := svc.Do(&brewsvc.Request{Config: tiny2, Fn: w.Apply, Args: args3})
	if !out2.Degraded || out2.CacheHit {
		t.Fatalf("degraded retry outcome = %+v", out2)
	}
	if got := svc.Stats().Traces; got != before+1 {
		t.Fatalf("degraded key did not re-trace: %d -> %d", before, got)
	}

	svc.Close()
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes: free %d, baseline %d", got, baseline)
	}
}

// TestRewriteBehind: Submit hands back a callable address before the
// rewrite completes (the stub routes to the original function), and the
// same address runs the specialization afterwards.
func TestRewriteBehind(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1))
	defer svc.Close()

	block := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	cfg, args := w.ApplyConfig()
	cfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			once.Do(func() { close(blocked) })
			<-block
		}
		return nil
	}
	tk := svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	<-blocked

	if _, ready := tk.TryOutcome(); ready {
		t.Fatal("outcome ready while the rewrite is still blocked")
	}
	if tk.Addr() == 0 {
		t.Fatal("no immediately callable address")
	}
	if tk.Addr() == w.Apply {
		t.Fatal("expected a patchable stub, got the raw original")
	}

	close(block)
	out := tk.Outcome()
	if out.Degraded {
		t.Fatalf("degraded: %s (%v)", out.Reason, out.Err)
	}
	if out.Addr != tk.Addr() {
		t.Fatalf("address changed across promotion: %#x -> %#x", tk.Addr(), out.Addr)
	}
	// The promoted address computes the right cell.
	cell := w.M1 + uint64((gridXS+1)*8)
	want, err := m.CallFloat(w.Apply, []uint64{cell, gridXS, w.S5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFloat(tk.Addr(), []uint64{cell, gridXS, w.S5}, nil)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("promoted cell = %g, %v; want %g", got, err, want)
	}
}

// TestCacheEviction: over-capacity inserts evict entries by CLOCK (second
// chance) and release their code; nothing leaks at Close.
func TestCacheEviction(t *testing.T) {
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithCache(1, 1))

	mkCfg := func(i int) (*brew.Config, []uint64) {
		cfg, args := w.ApplyConfig()
		cfg.MaxCodeBytes = (256 << 10) + i*16 // distinct keys
		return cfg, args
	}
	cfg1, args := mkCfg(1)
	first := svc.Do(&brewsvc.Request{Config: cfg1, Fn: w.Apply, Args: args})
	if first.Degraded {
		t.Fatalf("first: %+v", first)
	}
	cfg2, args2 := mkCfg(2)
	second := svc.Do(&brewsvc.Request{Config: cfg2, Fn: w.Apply, Args: args2})
	if second.Degraded {
		t.Fatalf("second: %+v", second)
	}
	if st := svc.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// The evicted key re-traces on resubmit.
	before := svc.Stats().Traces
	cfg1b, args1b := mkCfg(1)
	if out := svc.Do(&brewsvc.Request{Config: cfg1b, Fn: w.Apply, Args: args1b}); out.CacheHit {
		t.Fatalf("evicted key served from cache: %+v", out)
	}
	if got := svc.Stats().Traces; got != before+1 {
		t.Fatalf("evicted key did not re-trace")
	}

	svc.Close()
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes: free %d, baseline %d", got, baseline)
	}
}

// TestShutdown: Close completes queued requests as degraded shutdowns,
// reclaims all code, and later Submits degrade instead of wedging.
func TestShutdown(t *testing.T) {
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithQueueCap(8))

	block := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	wedgeCfg, args := w.ApplyConfig()
	wedgeCfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			once.Do(func() { close(blocked) })
			<-block
		}
		return nil
	}
	wedge := svc.Submit(&brewsvc.Request{Config: wedgeCfg, Fn: w.Apply, Args: args})
	<-blocked

	queuedCfg, args2 := w.ApplyConfig()
	queued := svc.Submit(&brewsvc.Request{Config: queuedCfg, Fn: w.Apply, Args: args2})

	done := make(chan struct{})
	go func() {
		defer close(done)
		close(block) // let the in-flight rewrite finish while Close waits
		svc.Close()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close wedged")
	}

	// The queued request either drained as a shutdown degrade or was picked
	// up by the worker before Close acquired the queue; both are legal.
	qo := queued.Outcome()
	switch {
	case qo.Degraded && qo.Reason == brewsvc.ReasonShutdown && errors.Is(qo.Err, brewsvc.ErrClosed):
	case !qo.Degraded && qo.Entry != nil:
	default:
		t.Fatalf("queued outcome = %+v", qo)
	}
	<-wedge.Done()

	post := svc.Submit(&brewsvc.Request{Config: brew.NewConfig(), Fn: w.Apply})
	if out := post.Outcome(); !out.Degraded || out.Reason != brewsvc.ReasonShutdown || !errors.Is(out.Err, brewsvc.ErrClosed) {
		t.Fatalf("post-close outcome = %+v", out)
	}
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes after Close: free %d, baseline %d", got, baseline)
	}
}

// TestUncacheableIsolation: Inject-bearing requests neither coalesce nor
// cache — each one runs its own trace on a private entry, which is
// installed specialized (not pending, not degraded, at the requested tier)
// and computes what the original computes; a guarded one routes through its
// dispatcher, and a guard miss through the original. Close gives every
// byte of their code back.
func TestUncacheableIsolation(t *testing.T) {
	m, w := newStencil(t)
	// Reference values first: the machine may not run while rewrites are
	// in flight. The miss width computes a different value than the
	// guarded one, so a miss served by the specialized body shows.
	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	missArgs := []uint64{cell, gridXS + 1, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMiss, err := m.CallFloat(w.Apply, missArgs, nil)
	if err != nil || wantMiss == want {
		t.Fatalf("miss width: original = %g, %v; indistinguishable from %g", wantMiss, err, want)
	}

	baseline := m.JITFreeBytes()
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2))
	defer svc.Close()

	inject := func(string) error { return nil }
	mk := func(i int) *brewsvc.Request {
		cfg, args := w.ApplyConfig()
		cfg.Inject = inject
		if i%2 == 1 {
			cfg.Effort = brew.EffortQuick
		}
		return &brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}
	}
	const n = 4
	reqs := make([]*brewsvc.Request, n)
	tickets := make([]*brewsvc.Ticket, n)
	for i := range tickets {
		reqs[i] = mk(i)
		tickets[i] = svc.Submit(reqs[i])
	}
	// One guarded uncacheable request: the width is guarded, not declared.
	gcfg := brew.NewConfig().SetParamPtrToKnown(3, stencil.StructSSize)
	gcfg.Inject = inject
	gtk := svc.Submit(&brewsvc.Request{Config: gcfg, Fn: w.Apply, Args: []uint64{0, 0, w.S5},
		Guards: []brew.ParamGuard{{Param: 2, Value: gridXS}}})

	outs := make([]brewsvc.Outcome, n)
	for i, tk := range tickets {
		outs[i] = tk.Outcome()
	}
	gout := gtk.Outcome()

	check := func(name string, out brewsvc.Outcome, tier brew.Effort) {
		t.Helper()
		if out.Degraded || out.Coalesced || out.CacheHit {
			t.Fatalf("%s: %+v", name, out)
		}
		if e := out.Entry; e == nil || e.Pending() || e.Degraded() || e.Tier() != tier {
			t.Fatalf("%s: entry %+v not installed at tier %v", name, e, tier)
		}
		got, err := m.CallFloat(out.Addr, callArgs, nil)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: cell = %g, %v; want %g", name, got, err, want)
		}
	}
	for i, out := range outs {
		check(fmt.Sprintf("request %d", i), out, reqs[i].Config.Effort)
	}
	check("guarded request", gout, brew.EffortFull)
	if gout.Entry.Guarded() == nil {
		t.Fatal("guarded request: entry has no dispatcher")
	}
	if got, err := m.CallFloat(gout.Addr, missArgs, nil); err != nil || got != wantMiss {
		t.Fatalf("guarded request, guard miss: cell = %g, %v; want %g", got, err, wantMiss)
	}
	if st := svc.Stats(); st.Traces != n+1 || st.CoalesceHits != 0 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want %d isolated traces", st, n+1)
	}

	svc.Close()
	if got := m.JITFreeBytes(); got != baseline {
		t.Fatalf("leaked JIT bytes: free %d, baseline %d", got, baseline)
	}
}

// TestSubmitRecheckClosesProbeWindow drives the one interleaving in which
// the unlocked cache probe and the singleflight table both miss a request
// that has in fact been traced: a flight for the same key publishes and
// retires after the late submitter's probe and before it takes the shard
// lock. The hook makes the window deterministic — the late submitter's own
// Submit, paused in the window, runs the whole first request to completion.
// Exactly one trace may happen; the late submitter must be served from the
// cache the first one filled.
func TestSubmitRecheckClosesProbeWindow(t *testing.T) {
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1))
	defer svc.Close()

	cfg, args := applyVariant(w, 0)
	req := func() *brewsvc.Request { return &brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args} }

	var first brewsvc.Outcome
	inWindow := false
	svc.SetAfterProbe(func() {
		if inWindow {
			return // the nested Submit below passes through
		}
		inWindow = true
		first = svc.Submit(req()).Outcome()
	})
	late := svc.Submit(req()).Outcome()
	svc.SetAfterProbe(nil)

	if first.Degraded || late.Degraded {
		t.Fatalf("degraded: first %v, late %v", first.Err, late.Err)
	}
	if st := svc.Stats(); st.Traces != 1 {
		t.Fatalf("traces = %d, want 1: the late submitter traced a key that was already cached", st.Traces)
	}
	if !late.CacheHit || late.Addr != first.Addr {
		t.Fatalf("late submitter: cache hit %v, addr %#x; first addr %#x", late.CacheHit, late.Addr, first.Addr)
	}
}
