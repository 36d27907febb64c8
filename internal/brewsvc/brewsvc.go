// Package brewsvc is the concurrent specialization service: a long-lived
// layer above brew.Do that lets many goroutines request specializations
// without each paying the multi-millisecond trace cost. It owns
//
//   - service shards partitioned by entry key (function, Config
//     fingerprint, known values, guard param set — see WithShards), each
//     with its own admission lock, worker pool of rewriter goroutines,
//     bounded three-level priority queue, and promotion pump state, so
//     unrelated fingerprints never contend on one mutex;
//   - backpressure per shard: a full queue rejects the request, degrading
//     it to the original function — never blocking or deadlocking the
//     submitter — and WithAdmission upgrades this to per-priority SLOs
//     with deadline-aware shedding (admission.go);
//   - singleflight coalescing: N concurrent callers asking for the same
//     (fn, Config fingerprint, known argument/guard values) trigger exactly
//     one trace and share the resulting JIT code, landing in
//   - a sharded specialized-code cache (config-fingerprint keyed, CLOCK
//     second-chance eviction per shard, reclaimed through the
//     specialization manager on eviction) whose hit path is lock-free:
//     readers walk an immutable map snapshot behind an atomic pointer and
//     write a slot's reference bit only when it is clear, so a warm hit
//     takes zero service locks end to end (verified by the
//     brewsvc_lockstat build, internal/lockstat) and in steady state its
//     cache lookup writes nothing.
//
// Multi-version specialization: guarded requests that differ only in
// their guard values share one specmgr entry (keyed by entryKey — the
// guard param set, not the values) and install as sibling variants of its
// table, dispatched by the entry's inline-cache chain. Each cache slot
// remembers the specific variant its guard values route to; a hit on a
// slot whose variant was demoted (guard-miss storm, assumption
// violation) or evicted drops the slot and re-traces, so the cache never
// serves a dead variant. Shard selection uses the entry key, so sibling
// variants always share a shard and a variant table.
//
// Completed rewrites are hot-installed through specmgr jump stubs
// ("rewrite-behind"): Submit returns a Ticket whose Addr is callable
// immediately — it routes to the original function until the worker
// promotes the specialization, so the hot path never blocks on a trace.
//
// Failure isolation follows the repo invariant: an injected fault, budget
// exhaustion, or rewriter panic degrades that one request to the original
// function; it never poisons the cache (degraded outcomes are not cached)
// and never wedges the queue. Requests carrying a Config.Inject hook are
// neither coalesced nor cached — the hook is per-request runtime behavior,
// invisible to the fingerprint by design.
//
// Tiered rewriting: requests carrying brew.EffortQuick install cheap
// tier-0 code (trace + constant folding, no optimization passes) and,
// when promotion is enabled (WithPromotion), accumulate hotness until an
// explicit PumpPromotions call hands them to a background worker that
// re-rewrites at brew.EffortFull and hot-swaps the optimized body
// (promote.go). Promotion rewrites start ONLY from PumpPromotions — call
// it while the machine is idle and await the returned batch before
// resuming emulated execution. The effort tier is part of the Config
// fingerprint, so tier-0 and tier-1 requests never coalesce onto one
// flight or share a cache slot — an explicit EffortFull request can never
// be served tier-0 code.
//
// Lock order: shard.mu -> Manager.mu. Shard locks are never held while
// acquiring another shard's lock; the cache writer locks are leaves.
package brewsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brew"
	"repro/internal/lockstat"
	"repro/internal/obs"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

// Service-level degradation reasons, extending the brew.Reason* vocabulary
// (admission.go adds ReasonOverload and ReasonDeadline).
const (
	// ReasonQueueFull: the bounded queue rejected the request.
	ReasonQueueFull = "queue-full"
	// ReasonShutdown: the service was closed before the request ran.
	ReasonShutdown = "shutdown"
)

// Service-level errors (admission.go adds ErrOverload).
var (
	// ErrQueueFull reports backpressure: the request was degraded to the
	// original function without being enqueued.
	ErrQueueFull = errors.New("brewsvc: request queue full")
	// ErrClosed reports a request submitted to (or drained by) a closed
	// service.
	ErrClosed = errors.New("brewsvc: service closed")
)

// Priority orders queued requests. Within a level the queue is FIFO.
type Priority uint8

// Queue priorities.
const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh
)

// Request is one service specialization request. The brew.Request fields
// keep their Do semantics; Mode is owned by the service (every rewrite runs
// under ModeDegrade — the service never fails a caller, it degrades).
type Request struct {
	// Config declares the rewrite assumptions. The service clones it at
	// admission, so the caller may reuse or mutate it afterwards.
	Config *brew.Config
	// Fn is the function to specialize.
	Fn uint64
	// Args and FArgs supply the rewrite-time parameter setting.
	Args  []uint64
	FArgs []float64
	// Guards, when non-empty, request a guarded specialization.
	Guards []brew.ParamGuard
	// Priority orders the request in the bounded queue.
	Priority Priority
}

// Outcome is the completed state of a request.
type Outcome struct {
	// Entry is the managed specialization entry (nil when no entry was
	// created: rejected, shut down, or invalid requests). Its Addr stays
	// valid until the entry is evicted from the cache or the service
	// closes.
	Entry *specmgr.Entry
	// Addr is always callable: specialized code, a guard dispatcher, or —
	// degraded — the original function.
	Addr uint64
	// Variant is the table variant this request's guard values route to
	// (nil for degraded, rejected, and uncacheable outcomes).
	Variant *specmgr.Variant
	// Degraded marks an outcome running the original function; Reason
	// holds the brew.Reason* / Reason* vocabulary label and Err the cause.
	Degraded bool
	Reason   string
	Err      error
	// Coalesced marks a caller that shared another caller's in-flight
	// trace; CacheHit marks a caller served from the specialized-code
	// cache. Both are false for the caller that triggered the trace.
	Coalesced bool
	CacheHit  bool
}

// Ticket is the handle Submit returns. Addr is callable immediately
// (rewrite-behind); Outcome or Wait block until the request completes.
type Ticket struct {
	addr      uint64
	coalesced bool
	cacheHit  bool
	done      chan struct{}
	out       Outcome

	// Lifecycle tracing (zero when untraced): a coalesced caller's span
	// runs from its Submit to the shared completion and links to the
	// flight's trace.
	trace     obs.TraceID
	spanStart int64
	fn        uint64
	link      obs.TraceID
}

// Addr returns the immediately callable address: cached specialized code,
// the entry's patchable stub (routing to the original function until the
// rewrite lands), or the original function itself.
func (t *Ticket) Addr() uint64 { return t.addr }

// Done returns a channel closed when the outcome is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Outcome blocks until the request completes and returns its outcome.
func (t *Ticket) Outcome() Outcome {
	<-t.done
	return t.out
}

// Wait blocks until the request completes or ctx is done, returning the
// outcome or the context error. The request itself is not cancelled — a
// coalesced trace may be serving other callers; abandon the ticket and
// the flight completes without you.
func (t *Ticket) Wait(ctx context.Context) (Outcome, error) {
	select {
	case <-t.done:
		return t.out, nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// TryOutcome returns the outcome if the request already completed.
func (t *Ticket) TryOutcome() (Outcome, bool) {
	select {
	case <-t.done:
		return t.out, true
	default:
		return Outcome{}, false
	}
}

// complete publishes the outcome (exactly once per ticket) and merges the
// per-caller admission flags.
func (t *Ticket) complete(o Outcome) {
	o.Coalesced = t.coalesced
	o.CacheHit = t.cacheHit
	t.out = o
	close(t.done)
	if t.link != 0 {
		obs.EndSpan(t.trace, obs.StageCoalesce, obs.TierNone, t.spanStart, t.fn, t.link)
	}
}

// closedCh is the shared pre-closed channel behind every already-complete
// ticket (Submit's cache hits, sheds, shutdown and invalid requests): such
// a ticket costs its one allocation and no channel, close or lock. Do's
// cache hits build no ticket at all.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// doneTicket returns an already-completed ticket carrying o verbatim.
func doneTicket(o Outcome) *Ticket {
	return &Ticket{addr: o.Addr, coalesced: o.Coalesced, cacheHit: o.CacheHit, done: closedCh, out: o}
}

// Stats is a point-in-time snapshot of the service counters, which are
// always collected (plain atomics, no gate). Service.Stats sums across
// shards; ShardStats exposes each shard.
type Stats struct {
	Submitted    uint64 // Submit calls
	CoalesceHits uint64 // callers that joined an in-flight trace
	CacheHits    uint64 // callers served from the specialized-code cache
	CacheMisses  uint64 // cacheable requests that started a new flight
	Rejected     uint64 // backpressure rejections (queue full, no SLO)
	Traces       uint64 // rewrites actually run by workers
	WarmHits     uint64 // flights served by persistent-store adoption (no trace)
	Promoted     uint64 // successful hot-installs
	Degraded     uint64 // worker rewrites that degraded to the original
	Evictions    uint64 // cache slots dropped: CLOCK victims, same-key displacements, dead variants

	// Tiered rewriting (promote.go).
	TierPromotions uint64 // hot tier-0 entries hot-swapped to EffortFull code
	TierDemotions  uint64 // promotion attempts that failed (entry stays tier-0)

	// Admission control (admission.go).
	Sheds         [3]uint64 // overload sheds by priority class (arrivals, eviction victims, deadline)
	DeadlineSheds uint64    // flights shed at dequeue after waiting past their class SLO
}

// stats is the per-shard atomic counter block. Every mutation is a single
// atomic add on the owning shard — Stats readers aggregate without
// touching any lock a worker could hold.
type stats struct {
	submitted, coalesced, cacheHits, cacheMisses atomic.Uint64
	rejected, traces, promoted, degraded         atomic.Uint64
	evictions, tierPromoted, tierDemoted         atomic.Uint64
	warmHits                                     atomic.Uint64
	sheds                                        [3]atomic.Uint64
	deadlineSheds                                atomic.Uint64
}

// snapshot reads the counter block into the exported form.
func (st *stats) snapshot() Stats {
	return Stats{
		Submitted:    st.submitted.Load(),
		CoalesceHits: st.coalesced.Load(),
		CacheHits:    st.cacheHits.Load(),
		CacheMisses:  st.cacheMisses.Load(),
		Rejected:     st.rejected.Load(),
		Traces:       st.traces.Load(),
		WarmHits:     st.warmHits.Load(),
		Promoted:     st.promoted.Load(),
		Degraded:     st.degraded.Load(),
		Evictions:    st.evictions.Load(),

		TierPromotions: st.tierPromoted.Load(),
		TierDemotions:  st.tierDemoted.Load(),

		Sheds: [3]uint64{
			st.sheds[0].Load(), st.sheds[1].Load(), st.sheds[2].Load(),
		},
		DeadlineSheds: st.deadlineSheds.Load(),
	}
}

// add folds o into s (Stats aggregation across shards).
func (s *Stats) add(o Stats) {
	s.Submitted += o.Submitted
	s.CoalesceHits += o.CoalesceHits
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Rejected += o.Rejected
	s.Traces += o.Traces
	s.WarmHits += o.WarmHits
	s.Promoted += o.Promoted
	s.Degraded += o.Degraded
	s.Evictions += o.Evictions
	s.TierPromotions += o.TierPromotions
	s.TierDemotions += o.TierDemotions
	for i := range s.Sheds {
		s.Sheds[i] += o.Sheds[i]
	}
	s.DeadlineSheds += o.DeadlineSheds
}

// Service is the concurrent specialization service. Create with Open, stop
// with Close. All methods are safe for concurrent use; the machine must not
// execute emulated code while rewrites are in flight (brew.Do's contract,
// inherited from the tracer reading machine memory).
type Service struct {
	m   *vm.Machine
	mgr *specmgr.Manager
	cfg svcConfig

	closed atomic.Bool

	shards []*shard
	cache  *cache // global: cache keys and service shards partition independently
	wg     sync.WaitGroup

	// afterProbe, set only by tests, runs on Submit's miss path between
	// the unlocked cache probe and the shard lock: the window in which a
	// flight for the same key can publish and retire.
	afterProbe func()
}

// shard is one independent slice of the service: its own admission lock,
// bounded priority queue, worker pool, singleflight table, entry
// ownership map and promotion pump state. Everything below mu is guarded
// by it; st and ewmaNS are atomics readable without it.
type shard struct {
	s  *Service
	id int

	mu       lockstat.Mutex
	cond     *sync.Cond
	q        *queue
	inflight map[cacheKey]*flight
	byFn     map[entryKey]*sharedEnt        // variant-table entries shared across guard values
	orphans  []*specmgr.Entry               // promoted-but-uncacheable or degraded entries, released at Close
	tracked  map[*specmgr.Variant]*hotTrack // tier-0 variants eligible for promotion
	hotIndex atomic.Pointer[[]hotRange]     // immutable sorted snapshot of tracked code ranges (NoteSample)

	// ewmaNS is the shard's exponentially weighted rewrite latency in
	// nanoseconds, feeding the admission-control wait estimate.
	ewmaNS atomic.Uint64

	st stats
}

// sharedEnt is the service-side ownership record of one variant-table
// entry: refs counts the flights and cache slots pointing at it; at zero
// the entry leaves the table and is released (or orphaned, when its
// address was handed out degraded). Guarded by the owning shard's mu.
type sharedEnt struct {
	e    *specmgr.Entry
	refs int
}

// flight is one in-progress specialization shared by every coalesced
// caller. A promo flight re-rewrites an already-live tier-0 variant at
// EffortFull and completes through specmgr.RepromoteVariant instead of
// InstallVariant.
type flight struct {
	k         cacheKey
	ek        entryKey
	cacheable bool
	promo     bool
	req       *brew.Request // service-owned copy (config cloned, slices copied)
	entry     *specmgr.Entry
	variant   *specmgr.Variant // promo flights: the variant being re-tiered
	prio      Priority
	tickets   []*Ticket // guarded by the owning shard's mu

	// Admission control: slo is the class SLO this flight was admitted
	// under (0 = exempt: no SLO class, or a promotion flight) and enqWall
	// the admission wall clock for the dequeue deadline check.
	slo     time.Duration
	enqWall time.Time

	// Lifecycle tracing (zero when untraced): trace is the creator's
	// request trace (promo flights get their own, linked to the request
	// that installed the tier-0 variant); enqNS anchors the queue-wait
	// span.
	trace obs.TraceID
	link  obs.TraceID
	enqNS int64
}

// tierOf maps a rewrite effort to its span tier label.
func tierOf(eff brew.Effort) obs.Tier {
	if eff == brew.EffortQuick {
		return obs.TierQuick
	}
	return obs.TierFull
}

// open builds and starts the service from a resolved configuration
// (constructors live in options.go).
func open(m *vm.Machine, cfg svcConfig) *Service {
	s := &Service{
		m:      m,
		mgr:    specmgr.New(m, cfg.policy),
		cfg:    cfg,
		cache:  newCache(cfg.cacheShards, cfg.cachePerShard),
		shards: make([]*shard, cfg.shards),
	}
	for i := range s.shards {
		sh := &shard{
			s:        s,
			id:       i,
			q:        newQueue(cfg.queueCap),
			inflight: make(map[cacheKey]*flight),
			byFn:     make(map[entryKey]*sharedEnt),
		}
		sh.cond = sync.NewCond(&sh.mu)
		s.shards[i] = sh
	}
	s.wg.Add(cfg.shards * cfg.workers)
	for _, sh := range s.shards {
		for i := 0; i < cfg.workers; i++ {
			go sh.worker()
		}
	}
	return s
}

// ShardCount returns the number of service shards.
func (s *Service) ShardCount() int { return len(s.shards) }

// shardOf maps an entry key to its owning shard.
func (s *Service) shardOf(ek entryKey) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[ek.hash()%uint64(len(s.shards))]
}

// Stats returns a snapshot of the service counters summed across shards.
// The read is lock-free: per-shard atomics aggregated here, so frequent
// pollers (brew-top -watch) can never stall a worker.
func (s *Service) Stats() Stats {
	var agg Stats
	for _, sh := range s.shards {
		agg.add(sh.st.snapshot())
	}
	return agg
}

// ShardStats returns each shard's counter snapshot, indexed by shard ID.
// Lock-free, like Stats.
func (s *Service) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.st.snapshot()
	}
	return out
}

// Submit admits one request and returns its ticket without ever blocking
// on a trace: the ticket's Addr is callable immediately. Admission order:
// cache hit (shared specialized code, lock-free), coalesce (join the
// in-flight trace for the same key), enqueue (admission-controlled), shed.
func (s *Service) Submit(req *Request) *Ticket {
	pr, out, done := s.probe(req)
	if done {
		return doneTicket(out)
	}
	return s.admit(req, pr)
}

// Do is the blocking form of Submit: same admission, then wait for the
// outcome. A request the probe settles (a cache hit, an invalid request,
// a closed service) returns without building a ticket, so a warm hit
// allocates nothing.
func (s *Service) Do(req *Request) Outcome {
	pr, out, done := s.probe(req)
	if done {
		return out
	}
	return s.admit(req, pr).Outcome()
}

// probed carries what the lock-free probe learned about a request into
// the locked half of admission.
type probed struct {
	sh        *shard
	k         cacheKey
	ek        entryKey
	cacheable bool
	tid       obs.TraceID
	subStart  int64
}

// probe is the lock-free front half of admission shared by Submit,
// SubmitBatch and Do: validation, keys, shard, the closed check, the trace
// start and the cache lookup. When done, out is the request's final
// outcome; otherwise pr holds the inputs of admitLocked. No service lock is
// taken and, on a live hit, nothing is allocated.
func (s *Service) probe(req *Request) (pr probed, out Outcome, done bool) {
	if req == nil {
		s.shards[0].st.submitted.Add(1)
		return pr, Outcome{
			Degraded: true, Reason: brew.ReasonBadConfig,
			Err: fmt.Errorf("%w: nil request", brew.ErrBadConfig),
		}, true
	}
	if req.Config == nil {
		s.shards[0].st.submitted.Add(1)
		return pr, Outcome{
			Addr: req.Fn, Degraded: true, Reason: brew.ReasonBadConfig,
			Err: fmt.Errorf("%w: nil configuration", brew.ErrBadConfig),
		}, true
	}
	// Shard by entry key so sibling guard-value variants (which share a
	// variant-table entry) land on one shard; uncacheable requests are
	// partitioned the same way — keysOf never reads Inject.
	pr.k, pr.ek = keysOf(req)
	pr.sh = s.shardOf(pr.ek)
	pr.sh.st.submitted.Add(1)
	if s.closed.Load() {
		return pr, shutdownOutcome(req.Fn), true
	}

	// Lifecycle tracing: one trace per admitted request, spans gated to
	// no-ops (tid == 0) while observation is disabled.
	pr.tid = obs.StartTrace()
	pr.subStart = obs.Now()

	// The fault-injection seam is per-request runtime behavior outside the
	// fingerprint: such requests must not share traces or cache slots.
	pr.cacheable = req.Config.Inject == nil
	if !pr.cacheable {
		return pr, out, false
	}
	lookStart := obs.Now()
	cv, ok := s.cache.get(pr.k)
	obs.EndSpanOn(pr.sh.id, pr.tid, obs.StageCacheLookup, obs.TierNone, lookStart, req.Fn, 0)
	if !ok {
		return pr, out, false
	}
	if !cv.v.Live() {
		// The slot's variant was demoted (guard-miss storm, assumption
		// violation) since it was cached: serving it would route this
		// caller to the generic original forever. Drop the slot and fall
		// through to a fresh trace.
		s.dropDeadSlot(pr.k, cv)
		return pr, out, false
	}
	// The warm path: snapshot read and atomic counters. No service lock
	// is acquired anywhere on this path (E10f), and nothing is allocated
	// (TestWarmHitAllocs).
	pr.sh.st.cacheHits.Add(1)
	obs.EndSpanOn(pr.sh.id, pr.tid, obs.StageSubmit, obs.TierNone, pr.subStart, req.Fn, 0)
	return pr, hitOutcome(cv), true
}

// admit runs the locked half of admission for a request the probe did not
// settle, under its shard's lock.
func (s *Service) admit(req *Request, pr probed) *Ticket {
	if s.afterProbe != nil {
		s.afterProbe()
	}
	pr.sh.mu.Lock()
	t := pr.sh.admitLocked(req, pr)
	pr.sh.mu.Unlock()
	obs.EndSpanOn(pr.sh.id, pr.tid, obs.StageSubmit, obs.TierNone, pr.subStart, req.Fn, 0)
	return t
}

// hitOutcome is the outcome of a request served from cache slot cv.
func hitOutcome(cv cacheVal) Outcome {
	return Outcome{Entry: cv.e, Addr: cv.e.Addr(), Variant: cv.v, CacheHit: true}
}

// admitLocked runs the locked half of admission on this shard: closed
// recheck, singleflight coalesce, admission control, enqueue. Shard mu
// held. Ticket completions for shed flows happen inline (complete never
// blocks).
func (sh *shard) admitLocked(req *Request, pr probed) *Ticket {
	s := sh.s
	k, ek, cacheable, tid := pr.k, pr.ek, pr.cacheable, pr.tid
	if s.closed.Load() {
		return doneTicket(shutdownOutcome(req.Fn))
	}
	if cacheable {
		if f := sh.inflight[k]; f != nil {
			t := &Ticket{addr: f.entry.Addr(), coalesced: true, done: make(chan struct{}),
				trace: tid, spanStart: pr.subStart, fn: req.Fn, link: f.trace}
			f.tickets = append(f.tickets, t)
			sh.st.coalesced.Add(1)
			return t
		}
		// The caller probed the cache before taking this lock. A flight
		// that published and retired in between is in neither place it
		// looked: a flight publishes before it leaves the inflight table,
		// and leaves it under this lock, so with no flight in the table a
		// second look at the cache settles whether k was ever traced.
		if cv, ok := s.cache.get(k); ok && cv.v.Live() {
			sh.st.cacheHits.Add(1)
			return doneTicket(hitOutcome(cv))
		}
		sh.st.cacheMisses.Add(1)
	}

	prio := req.Priority
	if prio > PriorityHigh {
		prio = PriorityHigh
	}
	var slo time.Duration
	if a := s.cfg.admission; a != nil {
		slo = a.SLO[prio]
	}
	if slo > 0 {
		// Estimated-wait shed: a request whose class SLO the queue ahead
		// of it already exceeds is doomed — shed it at the door.
		if sh.estimatedWaitLocked(prio) > slo {
			return sh.shedArrivalLocked(req.Fn, prio, tid)
		}
		if sh.q.full() {
			if s.cfg.admission.OnOverload[prio] == ShedEvictLower {
				victim := sh.q.evictLowestBelow(prio)
				if victim == nil {
					return sh.shedArrivalLocked(req.Fn, prio, tid)
				}
				sh.shedFlightLocked(victim, ReasonOverload, ErrOverload)
				// Room made; fall through to admit the arrival.
			} else {
				return sh.shedArrivalLocked(req.Fn, prio, tid)
			}
		}
	} else if sh.q.full() {
		// Legacy backpressure for classes outside admission control.
		sh.st.rejected.Add(1)
		if tid != 0 {
			obs.Emit(obs.Event{Kind: obs.KindDegrade, Trace: tid, Fn: req.Fn,
				Tier: obs.TierNone, Reason: ReasonQueueFull, Shard: int32(sh.id) + 1})
		}
		return doneTicket(Outcome{
			Addr: req.Fn, Degraded: true, Reason: ReasonQueueFull, Err: ErrQueueFull,
		})
	}

	// Admit: take ownership of the request (the caller may mutate its
	// Config or reuse its slices after Submit returns) and hand out the
	// rewrite-behind stub. Cacheable requests share the variant-table
	// entry for their entry key; uncacheable ones get a private entry.
	own := &brew.Request{
		Config: req.Config.Clone(),
		Fn:     req.Fn,
		Args:   append([]uint64(nil), req.Args...),
		FArgs:  append([]float64(nil), req.FArgs...),
		Guards: append([]brew.ParamGuard(nil), req.Guards...),
		Mode:   brew.ModeDegrade,
	}
	var entry *specmgr.Entry
	if cacheable {
		se := sh.byFn[ek]
		if se == nil {
			se = &sharedEnt{e: s.mgr.AdoptPending(own.Config, own.Fn, own.Args, own.FArgs, own.Guards)}
			sh.byFn[ek] = se
		}
		se.refs++ // the flight's reference; transfers to the cache slot on success
		entry = se.e
	} else {
		entry = s.mgr.AdoptPending(own.Config, own.Fn, own.Args, own.FArgs, own.Guards)
	}
	f := &flight{k: k, ek: ek, cacheable: cacheable, req: own, entry: entry, prio: prio,
		slo: slo, trace: tid, enqNS: obs.Now()}
	if slo > 0 {
		f.enqWall = time.Now()
	}
	t := &Ticket{addr: entry.Addr(), done: make(chan struct{})}
	f.tickets = []*Ticket{t}
	sh.q.push(f)
	if cacheable {
		sh.inflight[k] = f
	}
	sh.cond.Signal()
	return t
}

// shedArrivalLocked sheds an arriving admission-controlled request:
// completed degraded with ReasonOverload, never enqueued. Shard mu held.
func (sh *shard) shedArrivalLocked(fn uint64, prio Priority, tid obs.TraceID) *Ticket {
	sh.st.sheds[prio].Add(1)
	if tid != 0 {
		obs.Emit(obs.Event{Kind: obs.KindDegrade, Trace: tid, Fn: fn,
			Tier: obs.TierNone, Reason: ReasonOverload, Shard: int32(sh.id) + 1})
	}
	return doneTicket(Outcome{Addr: fn, Degraded: true, Reason: ReasonOverload, Err: ErrOverload})
}

// shedFlightLocked completes an already-queued flight degraded (overload
// eviction victim, or deadline shed at dequeue) and drops its ownership:
// the singleflight slot is vacated and the entry reference moves to the
// orphan list rather than being released — the flight's tickets already
// handed out the entry's stub address, which must stay callable until
// Close. Shard mu held.
func (sh *shard) shedFlightLocked(f *flight, reason string, err error) {
	sh.st.sheds[f.prio].Add(1)
	if f.cacheable {
		delete(sh.inflight, f.k)
		if sh.derefEntryLocked(f.ek, f.entry) {
			sh.orphans = append(sh.orphans, f.entry)
		}
	} else {
		sh.orphans = append(sh.orphans, f.entry)
	}
	if f.trace != 0 {
		obs.Emit(obs.Event{Kind: obs.KindDegrade, Trace: f.trace, Fn: f.req.Fn,
			Tier: obs.TierNone, Reason: reason, Shard: int32(sh.id) + 1})
	}
	res := Outcome{Addr: f.req.Fn, Degraded: true, Reason: reason, Err: err}
	tickets := f.tickets
	f.tickets = nil
	for _, t := range tickets {
		t.complete(res)
	}
}

// dropDeadSlot removes a cache slot whose variant died and drops the
// reference the slot held. Safe against racing submitters: only the one
// whose remove actually hit the slot adjusts the refcount.
func (s *Service) dropDeadSlot(k cacheKey, cv cacheVal) {
	if !s.cache.remove(k, cv.v) {
		return
	}
	owner := s.shardOf(cv.ek)
	owner.st.evictions.Add(1)
	owner.untrack(cv.v)
	owner.mu.Lock()
	release := owner.derefEntryLocked(cv.ek, cv.e)
	owner.mu.Unlock()
	if release {
		s.mgr.Release(cv.e)
	}
}

// derefEntryLocked drops one reference on ek's shared entry and reports
// whether the caller must release it (last reference gone). Shard mu
// held.
func (sh *shard) derefEntryLocked(ek entryKey, e *specmgr.Entry) bool {
	se := sh.byFn[ek]
	if se == nil || se.e != e {
		return false
	}
	se.refs--
	if se.refs > 0 {
		return false
	}
	delete(sh.byFn, ek)
	return true
}

// shutdownOutcome is the outcome of a request submitted to a closed
// service: the original function, degraded.
func shutdownOutcome(fn uint64) Outcome {
	return Outcome{Addr: fn, Degraded: true, Reason: ReasonShutdown, Err: ErrClosed}
}

// worker drains this shard's queue: trace, promote, cache, complete.
func (sh *shard) worker() {
	s := sh.s
	defer s.wg.Done()
	for {
		sh.mu.Lock()
		var f *flight
		for {
			for sh.q.empty() && !s.closed.Load() {
				sh.cond.Wait()
			}
			f = sh.q.pop()
			if f == nil { // closed, queue drained
				sh.mu.Unlock()
				return
			}
			// Deadline shed: a flight that already waited past its class
			// SLO is completed degraded instead of traced — the worker's
			// time goes to requests that can still meet their deadline.
			if f.slo > 0 && time.Since(f.enqWall) > f.slo {
				sh.st.deadlineSheds.Add(1)
				sh.shedFlightLocked(f, ReasonDeadline, ErrOverload)
				continue
			}
			break
		}
		sh.mu.Unlock()

		tier := tierOf(f.req.Config.Effort)
		obs.EndSpanOn(sh.id, f.trace, obs.StageQueue, tier, f.enqNS, f.req.Fn, f.link)

		// Warm start: before paying a trace, a cacheable flight consults
		// the persistent store. Adoption never happens blindly — the
		// record is fully revalidated against the live machine (checksum,
		// original code, frozen-region digests, guard set, then placed
		// where the JIT buffer has room and re-aimed; see spstore.Adopt). A
		// failed check quarantines it, a machine with no place for it
		// leaves it; both fall through to a fresh trace.
		var out *brew.Outcome
		var rerr error
		warm := false
		if s.cfg.store != nil && f.cacheable && !f.promo {
			out = s.warmAdopt(f)
			warm = out != nil
		}
		if warm {
			sh.st.warmHits.Add(1)
		} else {
			sh.st.traces.Add(1)
			rwStart := obs.Now()
			start := time.Now()
			out, rerr = brew.Do(s.m, f.req)
			elapsed := time.Since(start)
			obs.EndSpanOn(sh.id, f.trace, obs.StageRewrite, tier, rwStart, f.req.Fn, f.link)
			sh.observeRewriteNS(uint64(elapsed.Nanoseconds()))
		}

		if f.promo {
			sh.completePromotion(f, out, rerr)
			continue
		}

		var res Outcome
		if f.cacheable {
			res = sh.completeCacheable(f, out, rerr, warm)
		} else {
			res = sh.completeUncacheable(f, out, rerr)
		}

		sh.mu.Lock()
		if f.cacheable {
			delete(sh.inflight, f.k)
		}
		tickets := f.tickets
		f.tickets = nil
		for _, t := range tickets {
			t.complete(res)
		}
		sh.mu.Unlock()
	}
}

// completeCacheable installs a finished cacheable rewrite as a variant of
// the shared entry and publishes it to the cache.
func (sh *shard) completeCacheable(f *flight, out *brew.Outcome, rerr error, warm bool) Outcome {
	s := sh.s
	instStart := obs.Now()
	v, ok := s.mgr.InstallVariant(f.entry, f.req.Config, f.req.Guards, f.req.Args, f.req.FArgs, out, rerr)
	obs.EndSpanOn(sh.id, f.trace, obs.StageInstall, tierOf(f.req.Config.Effort), instStart, f.req.Fn, 0)
	res := Outcome{Entry: f.entry, Addr: f.entry.Addr(), Variant: v}
	if !ok {
		// Degraded: the variant was not installed and the key is NOT
		// cached — a later Submit with the same key retries the
		// specialization from scratch. The entry itself survives as long
		// as siblings or slots reference it; the last reference orphans it
		// (its handed-out Addr stays callable until Close).
		sh.st.degraded.Add(1)
		res.Degraded = true
		res.Err = rerr
		if out != nil {
			res.Reason = out.Reason
		}
		sh.mu.Lock()
		removed := sh.derefEntryLocked(f.ek, f.entry)
		if removed {
			sh.orphans = append(sh.orphans, f.entry)
		}
		sh.mu.Unlock()
		return res
	}
	sh.st.promoted.Add(1)
	// Track BEFORE publishing to the cache: the moment the variant is
	// visible there, a racing put can evict and remove it, and that
	// eviction's untrack must find the registration — a track added after
	// the removal would pin a stale code range in the sample index and
	// leak the dead record in sh.tracked.
	if s.cfg.promoteAfter > 0 && f.req.Config.Effort == brew.EffortQuick &&
		out != nil && out.Result != nil && !out.Result.Degraded {
		sh.mu.Lock()
		sh.trackLocked(f, v, out.Result)
		sh.mu.Unlock()
	}
	// Insert before dropping the inflight slot so a racing Submit sees
	// either the flight or the cache, never a gap that would duplicate
	// the trace. The flight's entry reference transfers to the slot.
	for _, victim := range s.cache.put(f.k, cacheVal{e: f.entry, v: v, ek: f.ek}) {
		s.evictVictim(victim, v)
	}
	// Persist freshly traced installs (a warm adoption would re-write the
	// identical record). The write is synchronous on this worker — off
	// the serve path.
	if s.cfg.store != nil && !warm {
		s.persist(f, out)
	}
	return res
}

// evictVictim reclaims one displaced cache slot: the variant it served is
// removed from its table (unless it IS the just-installed variant — a
// same-key collision replaced the slot, and the new slot carries the
// reference for the same code) and the slot's entry reference is dropped,
// releasing the entry when it was the last. The victim may belong to any
// service shard (the cache partitions independently), so the bookkeeping
// routes to the owner via its entry key.
func (s *Service) evictVictim(victim cacheVal, justInstalled *specmgr.Variant) {
	owner := s.shardOf(victim.ek)
	owner.st.evictions.Add(1)
	if victim.v != justInstalled {
		owner.untrack(victim.v)
		s.mgr.RemoveVariant(victim.e, victim.v)
	}
	owner.mu.Lock()
	release := owner.derefEntryLocked(victim.ek, victim.e)
	owner.mu.Unlock()
	if release {
		s.mgr.Release(victim.e)
	}
}

// completeUncacheable finishes a private-entry flight (Config.Inject set:
// no coalescing, no cache): the outcome becomes the pending entry's first
// variant.
func (sh *shard) completeUncacheable(f *flight, out *brew.Outcome, rerr error) Outcome {
	s := sh.s
	instStart := obs.Now()
	_, promoted := s.mgr.InstallVariant(f.entry, f.req.Config, f.req.Guards, f.req.Args, f.req.FArgs, out, rerr)
	obs.EndSpanOn(sh.id, f.trace, obs.StageInstall, tierOf(f.req.Config.Effort), instStart, f.req.Fn, 0)
	res := Outcome{Entry: f.entry, Addr: f.entry.Addr()}
	if promoted {
		sh.st.promoted.Add(1)
	} else {
		sh.st.degraded.Add(1)
		res.Degraded = true
		res.Err = rerr
		if out != nil {
			res.Reason = out.Reason
		}
	}
	sh.mu.Lock()
	sh.orphans = append(sh.orphans, f.entry)
	sh.mu.Unlock()
	return res
}

// Close stops the service: queued (not yet running) requests complete
// degraded with ReasonShutdown, in-flight rewrites finish, and every entry
// the service owns — queued, cached, and orphaned — is released, returning
// all JIT code-buffer space. Outcome addresses must no longer be used
// afterwards. Close is idempotent; concurrent Submits complete degraded.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		s.wg.Wait()
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		var drained []*flight
		for f := sh.q.pop(); f != nil; f = sh.q.pop() {
			drained = append(drained, f)
		}
		var unref []*specmgr.Entry
		for _, f := range drained {
			if f.cacheable {
				delete(sh.inflight, f.k)
				if sh.derefEntryLocked(f.ek, f.entry) {
					// Last reference: the entry just left byFn, so the sweep
					// below cannot reach it anymore.
					unref = append(unref, f.entry)
				}
			}
			for _, t := range f.tickets {
				t.complete(Outcome{Addr: f.req.Fn, Degraded: true, Reason: ReasonShutdown, Err: ErrClosed})
			}
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()

		// Private entries of drained flights are owned by nobody else;
		// shared (cacheable) entries still referenced are swept via
		// byFn/cache below.
		for _, e := range unref {
			s.mgr.Release(e)
		}
		for _, f := range drained {
			if !f.cacheable && !f.promo {
				s.mgr.Release(f.entry)
			}
		}
	}
	s.wg.Wait()

	for _, sh := range s.shards {
		sh.mu.Lock()
		orphans := sh.orphans
		sh.orphans = nil
		shared := make([]*specmgr.Entry, 0, len(sh.byFn))
		for ek, se := range sh.byFn {
			shared = append(shared, se.e)
			delete(sh.byFn, ek)
		}
		sh.mu.Unlock()
		for _, e := range orphans {
			s.mgr.Release(e)
		}
		for _, e := range shared {
			s.mgr.Release(e)
		}
	}
	// Release is idempotent: slots whose entries were just swept via byFn
	// are harmless repeats.
	for _, cv := range s.cache.drain() {
		s.mgr.Release(cv.e)
	}
}
