package brewsvc

import (
	"context"
	"sort"

	"repro/internal/brew"
	"repro/internal/obs"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

// Tiered promotion: a cacheable tier-0 (brew.EffortQuick) variant
// installs immediately, then accumulates hotness — managed calls counted
// by the specmgr entry's cheap stub-side counter (attributed to the
// variant by the dispatch accounting) plus sampling-profiler hits landing
// in its code (NoteSample / AttachHotness). Once the combined count
// reaches the WithPromotion threshold, the variant is due: an explicit
// PumpPromotions call enqueues a low-priority background flight that
// re-rewrites the function at brew.EffortFull and hot-swaps the optimized
// body through specmgr.RepromoteVariant — only that variant; its siblings
// in the table keep their own tiers. Cold variants never pay the
// optimization pass stack; hot variants converge to full-effort
// steady-state code.
//
// Promotion flights ride the ordinary worker pool and queue of the shard
// that owns the variant, so they obey the same contract as every rewrite:
// the machine must not execute emulated code while they are in flight.
// That is why promotion is pumped only explicitly — PumpPromotions is
// called by the host at a point where it knows the machine is idle, and
// the host must await the returned PromotionBatch before resuming
// emulated execution. Hotness accumulation itself is execution-side and
// lock-free by design; the slow rewrite is never started from the
// profiler hook.

// hotTrack is the service-side record of one promotable tier-0 variant.
type hotTrack struct {
	req    *brew.Request // the service-owned tier-0 request it was built from
	k      cacheKey
	ek     entryKey
	e      *specmgr.Entry
	v      *specmgr.Variant
	lo, hi uint64      // specialized-body range for profiler-sample attribution
	trace  obs.TraceID // the request trace that installed the tier-0 variant
	queued bool        // promotion flight enqueued (one shot per variant)
}

// hotRange is one entry of the immutable sample-attribution index, sorted
// by lo. JIT code ranges are disjoint, so at most one range can contain a
// given pc. Body ranges carry the variant (samples bump variant and
// entry); dispatch-chain ranges carry v == nil — a guarded tier-0
// entry's dispatcher cycles are real execution cost of that entry, so
// they count toward its promotion signal instead of vanishing.
type hotRange struct {
	lo, hi uint64
	e      *specmgr.Entry
	v      *specmgr.Variant
}

// rebuildHotIndexLocked publishes a fresh immutable index of this shard's
// tracked code ranges for the lock-free NoteSample path (shard mu held).
// Track and untrack are rare (one per install/eviction/promotion), so an
// O(n log n) rebuild here buys an O(log n) lock-free sample path.
func (sh *shard) rebuildHotIndexLocked() {
	if len(sh.tracked) == 0 {
		sh.hotIndex.Store(nil)
		return
	}
	idx := make([]hotRange, 0, 2*len(sh.tracked))
	seen := make(map[*specmgr.Entry]bool)
	for v, tr := range sh.tracked {
		idx = append(idx, hotRange{lo: tr.lo, hi: tr.hi, e: tr.e, v: v})
		if !seen[tr.e] {
			seen[tr.e] = true
			// Nested shard.mu -> Manager.mu, the established lock order.
			if lo, hi := tr.e.DispatchRange(); hi > lo {
				idx = append(idx, hotRange{lo: lo, hi: hi, e: tr.e})
			}
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i].lo < idx[j].lo })
	sh.hotIndex.Store(&idx)
}

// trackLocked registers a freshly installed tier-0 variant for
// hotness-driven promotion (shard mu held).
func (sh *shard) trackLocked(f *flight, v *specmgr.Variant, res *brew.Result) {
	if sh.tracked == nil {
		sh.tracked = make(map[*specmgr.Variant]*hotTrack)
	}
	sh.tracked[v] = &hotTrack{
		req: f.req, k: f.k, ek: f.ek, e: f.entry, v: v,
		lo: res.Addr, hi: res.Addr + uint64(res.CodeSize),
		trace: f.trace,
	}
	sh.rebuildHotIndexLocked()
}

// untrack drops a variant from this shard's promotion tracking (on
// eviction, release, or promotion completion).
func (sh *shard) untrack(v *specmgr.Variant) {
	sh.mu.Lock()
	if _, ok := sh.tracked[v]; ok {
		delete(sh.tracked, v)
		sh.rebuildHotIndexLocked()
	}
	sh.mu.Unlock()
}

// NoteSample attributes one sampling-profiler hit to whichever tracked
// tier-0 variant's specialized body — or tracked entry's dispatch chain —
// contains pc (no-op otherwise). It is safe to call from the emulation
// goroutine mid-execution and stays off every service lock: it
// binary-searches the immutable per-shard snapshots of the tracked
// ranges and bumps atomic counters, never starting a rewrite. A sample
// racing an eviction may land on a just-released variant's counter; the
// objects outlive their code, so the bump is harmless and simply never
// feeds a promotion.
func (s *Service) NoteSample(pc uint64) {
	for _, sh := range s.shards {
		idx := sh.hotIndex.Load()
		if idx == nil {
			continue
		}
		ranges := *idx
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].hi > pc })
		if i < len(ranges) && pc >= ranges[i].lo {
			ranges[i].e.NoteSample()
			if ranges[i].v != nil {
				ranges[i].v.NoteSample()
			}
			return
		}
	}
}

// AttachHotness wires the machine's sampling profiler into the service's
// hotness accounting: every sample PC is offered to NoteSample. This is
// the profiler half of the promotion signal; the other half is the
// stub-side call counter specmgr entries maintain.
func (s *Service) AttachHotness(p *vm.Profiler) {
	p.OnSample = s.NoteSample
}

// PromotionBatch is the set of promotion flights one PumpPromotions call
// enqueued. The pump-and-await contract lives in this type: await the
// batch (AwaitAll) before resuming emulated execution — the re-rewrites
// trace machine memory, and each hot-swap frees a tier-0 body the
// machine could otherwise still be executing. A nil batch is valid and
// empty.
type PromotionBatch struct {
	tickets []*Ticket
}

// Len returns the number of promotion flights in the batch.
func (b *PromotionBatch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.tickets)
}

// Tickets returns the batch's tickets (shared, do not mutate).
func (b *PromotionBatch) Tickets() []*Ticket {
	if b == nil {
		return nil
	}
	return b.tickets
}

// AwaitAll blocks until every promotion in the batch completes (or ctx is
// done) and returns the outcomes in batch order. On context error the
// partial outcomes collected so far are returned alongside it; the
// remaining promotions still run — cancelling the wait does not cancel
// the rewrites, so the machine must still not execute emulated code
// until the service quiesces.
func (b *PromotionBatch) AwaitAll(ctx context.Context) ([]Outcome, error) {
	if b.Len() == 0 {
		return nil, nil
	}
	outs := make([]Outcome, 0, len(b.tickets))
	for _, t := range b.tickets {
		o, err := t.Wait(ctx)
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// PumpPromotions evaluates every tracked tier-0 variant against the
// promotion threshold and enqueues a background EffortFull re-rewrite on
// the owning shard for those due, returning the batch of enqueued
// promotions. This is the ONLY place promotion flights start, and the
// rewrite contract makes the batch mandatory: call PumpPromotions while
// the machine is idle and await the batch (PromotionBatch.AwaitAll)
// before resuming emulated execution. A full shard queue defers that
// shard's due variants to the next pump rather than rejecting them.
func (s *Service) PumpPromotions() *PromotionBatch {
	batch := &PromotionBatch{}
	if s.cfg.promoteAfter <= 0 || s.closed.Load() {
		return batch
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		batch.tickets = append(batch.tickets, sh.pumpLocked()...)
		sh.mu.Unlock()
	}
	return batch
}

// pumpLocked runs one shard's promotion pump (shard mu held).
func (sh *shard) pumpLocked() []*Ticket {
	s := sh.s
	if len(sh.tracked) == 0 {
		return nil
	}
	// A variant demoted or evicted since it was tracked can no longer be
	// promoted; drop it here rather than burning a flight on a refusal.
	perEntry := make(map[*specmgr.Entry]int)
	dropped := false
	for v, tr := range sh.tracked {
		if !v.Live() { // nested shard.mu -> Manager.mu
			delete(sh.tracked, v)
			dropped = true
			continue
		}
		perEntry[tr.e]++
	}
	if dropped {
		sh.rebuildHotIndexLocked()
	}
	var tickets []*Ticket
	for v, tr := range sh.tracked {
		if tr.queued || sh.q.full() {
			continue
		}
		vc, vs := v.Hotness()
		due := vc+vs >= uint64(s.cfg.promoteAfter)
		if !due && perEntry[tr.e] == 1 {
			// Sole tracked variant of its entry: entry-level hotness (raw
			// stub calls, samples attributed to the dispatch chain) is
			// unambiguously its signal too.
			ec, es := tr.e.Hotness()
			due = ec+es >= uint64(s.cfg.promoteAfter)
		}
		if !due {
			continue
		}
		cfg := tr.req.Config.Clone()
		cfg.Effort = brew.EffortFull
		// The promotion is its own trace, linked back to the request that
		// installed the tier-0 variant so TraceEvents reassembles the full
		// lifecycle across the asynchronous boundary.
		f := &flight{
			k: tr.k, ek: tr.ek, promo: true, prio: PriorityLow,
			req: &brew.Request{
				Config: cfg, Fn: tr.req.Fn,
				Args: tr.req.Args, FArgs: tr.req.FArgs, Guards: tr.req.Guards,
				Mode: brew.ModeDegrade,
			},
			entry:   tr.e,
			variant: v,
			trace:   obs.StartTrace(),
			link:    tr.trace,
			enqNS:   obs.Now(),
		}
		t := &Ticket{addr: tr.e.Addr(), done: make(chan struct{})}
		f.tickets = []*Ticket{t}
		tr.queued = true
		sh.q.push(f)
		sh.cond.Signal()
		tickets = append(tickets, t)
	}
	return tickets
}

// completePromotion finishes a tier-promotion flight: hot-swap on
// success, demotion accounting on failure (the variant keeps serving its
// tier-0 code — a failed promotion is never worse than no promotion).
func (sh *shard) completePromotion(f *flight, out *brew.Outcome, rerr error) {
	s := sh.s
	ok := s.mgr.RepromoteVariant(f.entry, f.variant, f.req.Config, out, rerr)
	res := Outcome{Entry: f.entry, Addr: f.entry.Addr(), Variant: f.variant}
	if ok {
		sh.st.tierPromoted.Add(1)
		// Persist the optimized body under its (EffortFull) content
		// address: a warm start then adopts straight at tier-1.
		if s.cfg.store != nil {
			s.persist(f, out)
		}
	} else {
		sh.st.tierDemoted.Add(1)
		res.Degraded = true
		res.Err = rerr
		if out != nil {
			res.Reason = out.Reason
		}
	}
	// The promotion span covers the whole background lifecycle: queue
	// wait, re-rewrite, and hot swap, linked to the originating request.
	obs.EndSpanOn(sh.id, f.trace, obs.StagePromotion, obs.TierFull, f.enqNS, f.req.Fn, f.link)
	if f.trace != 0 {
		kind := obs.KindPromoteOK
		if !ok {
			kind = obs.KindPromoteFail
		}
		obs.Emit(obs.Event{Kind: kind, Trace: f.trace, Link: f.link,
			Fn: f.req.Fn, Addr: f.entry.Addr(), Tier: obs.TierFull, Reason: res.Reason,
			Shard: int32(sh.id) + 1})
	}

	sh.mu.Lock()
	delete(sh.tracked, f.variant) // one shot: promoted, or permanently demoted
	sh.rebuildHotIndexLocked()
	tickets := f.tickets
	f.tickets = nil
	for _, t := range tickets {
		t.complete(res)
	}
	sh.mu.Unlock()
}
