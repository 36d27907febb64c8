// Package specmgr manages the lifetime of runtime specializations: it is
// the self-healing layer above the BREW rewriter. Each managed function is
// an Entry fronted by a small patchable stub (the stable address callers
// bake into tables), behind which lives a multi-version variant table: up
// to Policy.MaxVariants specialized bodies keyed on observed hot argument
// values, dispatched through an entry-owned inline-cache chain — one
// compare-and-branch block per guarded variant, falling through to the
// unconditional variant or the generic original on miss, so an
// unspecialized value class is never wrong, only generic-speed.
//
// Every variant is registered together with the assumptions it was built
// under — the frozen memory regions (SetMemRange plus ParamPtrToKnown
// pointees) and guarded parameter values — and the manager arms VM
// write-watchpoints over the frozen ranges. Lifecycle is per variant: a
// store into a frozen region, or a guard-miss storm, demotes only the
// offending variant by patching its chain block away before the next call
// returns; cold variants are evicted individually (LRU within the table).
// Only when the last live variant demotes does the entry as a whole
// deoptimize — the stub is redirected to the original function, and on
// the next managed call the entry may lazily re-specialize against the
// new memory contents.
//
// Together with brew.Do's degrade mode this yields the robustness
// invariant the chaos tests (chaos_test.go) enforce: the system is never
// wrong and never crashes; at worst it runs the original code at generic
// speed.
package specmgr

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/lockstat"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Deoptimization reasons.
const (
	// DeoptAssumption: a store hit a frozen memory region.
	DeoptAssumption = "assumption-violated"
	// DeoptGuardStorm: Policy.GuardMissLimit consecutive guard misses.
	DeoptGuardStorm = "guard-miss-storm"
	// DeoptManual: explicit Manager.Deopt call.
	DeoptManual = "manual"
	// DeoptEvicted: the variant was removed by its owner (cache eviction),
	// not by an invalidated assumption.
	DeoptEvicted = "variant-evicted"
)

// ErrReleased reports a managed call through a released entry.
var ErrReleased = errors.New("specmgr: entry released")

// Policy configures a Manager.
type Policy struct {
	// MaxLive bounds live entries; exceeding it evicts the least recently
	// used entry (releasing its code-buffer space). 0 means unlimited.
	MaxLive int
	// MaxVariants bounds the live variants in one entry's table; installing
	// past it evicts the least recently dispatched variant (its body is
	// reclaimed, the rest of the table keeps serving). 0 means unlimited.
	MaxVariants int
	// GuardMissLimit demotes a guarded variant after this many consecutive
	// guard misses observed by Entry.Call/CallFloat (the specialized
	// variant is evidently no longer the hot case). 0 disables.
	GuardMissLimit uint64
	// Respecialize re-runs the rewrite lazily on the first managed call
	// after a deoptimization, against the current memory contents. One
	// attempt per deoptimization: a failed attempt leaves the entry
	// degraded until the next deopt.
	Respecialize bool
}

// Manager tracks specializations for one machine. All methods are safe for
// concurrent use with each other while the machine is not executing;
// managed calls themselves must come from one goroutine at a time (the
// machine is single-threaded).
type Manager struct {
	m   *vm.Machine
	pol Policy

	mu      lockstat.Mutex
	entries map[uint64]*Entry // original entry address -> live entry
	clock   uint64
}

// Entry is one managed function. Its stable address (Addr) is a small
// patchable stub routing into the variant table's dispatch chain, so
// demotion and deoptimization retarget every caller at once.
type Entry struct {
	mgr *Manager
	fn  uint64

	// Hotness counters (tiered rewriting): hotCalls is the cheap
	// stub-side counter bumped on every managed call; hotSamples counts
	// sampling-profiler hits attributed to this entry's code (each sample
	// represents one profiler interval of cycles). Atomic so the call
	// path and the profiler feed never take mgr.mu. Per-variant hotness
	// lives on the Variants themselves.
	hotCalls   atomic.Uint64
	hotSamples atomic.Uint64

	// stub is the patchable JMP, 0 if stub allocation failed. Written
	// under mgr.mu (or before the entry is published); Addr reads it
	// without the lock.
	stub atomic.Uint64

	// Everything below is guarded by mgr.mu.
	variants []*Variant     // live variants, chain dispatch order
	retired  []*Variant     // demoted/evicted, code pending idle-point reclaim
	chain    *dispatchChain // inline-cache dispatcher, nil when no guarded variant
	primary  *Variant       // the variant Result/Tier/Guarded report (first install)

	// The primary request, retained for respecialization; callers must not
	// mutate cfg/args/fargs after handing them over.
	cfg    *brew.Config
	args   []uint64
	fargs  []float64
	guards []brew.ParamGuard

	pending    bool // adopted, awaiting its first install (stub routes to fn meanwhile)
	degraded   bool // specialization failed; running the original
	deopted    bool
	reason     string // last deopt (or degradation) reason
	respecDone bool   // one respecialization attempt per deopt
	released   bool
	lastUse    uint64
}

// NoteCall bumps the entry's call-hotness counter. Entry.Call/CallFloat
// do this automatically; hosts dispatching through the raw stub address
// call it from their own dispatch path (the "cheap stub-side counter").
func (e *Entry) NoteCall() { e.hotCalls.Add(1) }

// NoteSample attributes one sampling-profiler hit to the entry (the
// profiler fires every Interval cycles, so samples are a cycle-weighted
// hotness signal covering calls that bypass Entry.Call).
func (e *Entry) NoteSample() { e.hotSamples.Add(1) }

// Hotness returns the entry's accumulated hotness counters.
func (e *Entry) Hotness() (calls, samples uint64) {
	return e.hotCalls.Load(), e.hotSamples.Load()
}

// Tier returns the effort of the code the entry actually serves: the
// primary variant's rewrite effort, or EffortFull for pending, degraded,
// deopted, or released entries — those run the original function, which
// by definition is not a reduced-fidelity body.
func (e *Entry) Tier() brew.Effort {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	if p := e.primary; p != nil && p.live.Load() && !e.pending && !e.deopted && !e.degraded && !e.released {
		return p.tier
	}
	return brew.EffortFull
}

// New returns a Manager for machine m.
func New(m *vm.Machine, pol Policy) *Manager {
	return &Manager{m: m, pol: pol, entries: make(map[uint64]*Entry)}
}

// Len returns the number of live entries.
func (g *Manager) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.entries)
}

// Lookup returns the live entry for the function at fn, or nil.
func (g *Manager) Lookup(fn uint64) *Entry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entries[fn]
}

// Specialize rewrites fn under cfg and registers the result. It never
// fails into an unusable state: on any rewrite failure the returned entry
// transparently runs the original function and the error reports the
// cause. cfg, args and fargs are retained for respecialization and must
// not be mutated by the caller afterwards.
func (g *Manager) Specialize(cfg *brew.Config, fn uint64, args []uint64, fargs []float64) (*Entry, error) {
	out, err := brew.Do(g.m, &brew.Request{
		Config: cfg, Fn: fn, Args: args, FArgs: fargs, Mode: brew.ModeDegrade,
	})
	e := &Entry{mgr: g, fn: fn, cfg: cfg, args: args, fargs: fargs}
	g.registerNew(e, out, err)
	return e, err
}

// SpecializeGuarded is Specialize for guarded specializations (Request
// Guards): the entry's variant dispatches on the guard conditions and is
// additionally subject to the guard-miss-storm demotion policy.
func (g *Manager) SpecializeGuarded(cfg *brew.Config, fn uint64, guards []brew.ParamGuard, args []uint64, fargs []float64) (*Entry, error) {
	e := &Entry{mgr: g, fn: fn, cfg: cfg, args: args, fargs: fargs, guards: guards}
	if len(guards) == 0 {
		// A guardless guarded request would silently become a plain
		// specialization through Do; keep the historical refusal.
		e.reason = brew.ReasonBadConfig
		err := fmt.Errorf("%w (%s): %w: no guards", brew.ErrDegraded, brew.ReasonBadConfig, brew.ErrBadConfig)
		g.registerNew(e, nil, err)
		return e, err
	}
	out, err := brew.Do(g.m, &brew.Request{
		Config: cfg, Fn: fn, Guards: guards, Args: args, FArgs: fargs, Mode: brew.ModeDegrade,
	})
	g.registerNew(e, out, err)
	return e, err
}

// AdoptPending creates a detached pending entry for a rewrite that has not
// run yet: the entry's stub is installed routing to the original function,
// so callers can take its Addr immediately and run at generic speed until
// InstallVariant hot-patches the stub to the specialized code
// ("rewrite-behind" — the hot path never blocks on a trace). Detached
// entries do not occupy the per-function slot in the manager's table, so
// several specializations of the same function can be co-resident (the
// service cache keeps one entry per (fn, config fingerprint, guard-set)
// key); they are exempt from MaxLive eviction and are released explicitly
// via Release.
//
// cfg, args and fargs are retained for respecialization and must not be
// mutated by the caller afterwards.
func (g *Manager) AdoptPending(cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard) *Entry {
	e := &Entry{
		mgr: g, fn: fn, cfg: cfg, args: args, fargs: fargs, guards: guards,
		pending: true,
	}
	// Stub failure (JIT space exhausted) leaves stub == 0: the entry then
	// routes to fn directly and installs can only degrade it.
	stub, _ := g.installStub(fn)
	e.stub.Store(stub)
	return e
}

// registerNew installs the stub and inserts the fresh entry, evicting over
// MaxLive. The specialization/degradation counter decision happens after
// the stub outcome: a successful rewrite whose stub allocation fails
// cannot be served and is counted as degraded, not as a live
// specialization.
func (g *Manager) registerNew(e *Entry, out *brew.Outcome, rerr error) {
	// The stable entry: a 5-byte JMP that demotion can retarget atomically
	// (at emulated-instruction granularity). If even this tiny allocation
	// fails, fall back to the original entry directly — the entry then
	// cannot be specialized, only degraded.
	stub, serr := g.installStub(e.fn)
	e.stub.Store(stub) // 0 on failure

	g.mu.Lock()
	switch {
	case out == nil || out.Degraded || rerr != nil:
		freeOutcome(g.m, out) // defensive: a degraded outcome carries no code
		e.degraded = true
		if e.reason == "" {
			if out != nil && out.Reason != "" {
				e.reason = out.Reason
			} else if rerr != nil {
				e.reason = brew.DegradeReason(rerr)
			}
		}
		emitDegrade(e, e.reason)
	case serr != nil:
		freeOutcome(g.m, out)
		e.degraded = true
		e.reason = brew.ReasonCodeBuffer
		emitDegrade(e, e.reason)
	default:
		if v := g.installOutcomeLocked(e, e.cfg, e.guards, e.args, e.fargs, out); v != nil {
			e.primary = v
		} else {
			// installOutcomeLocked degraded the entry (chain allocation
			// failed); record it with the other degradations.
			emitDegrade(e, e.reason)
		}
	}
	if old := g.entries[e.fn]; old != nil {
		g.releaseLocked(old)
	}
	g.clock++
	e.lastUse = g.clock
	g.entries[e.fn] = e
	g.evictOverLimitLocked(e)
	g.mu.Unlock()
}

// installStub emits "jmp target" into fresh JIT space.
func (g *Manager) installStub(target uint64) (uint64, error) {
	ins := isa.MakeRel(isa.JMP, target)
	size, err := isa.EncodedLen(ins)
	if err != nil {
		return 0, err
	}
	return g.m.InstallJIT(size, func(at uint64) ([]byte, error) {
		ins.Addr = at
		return isa.AppendEncode(nil, ins)
	})
}

// patchStub retargets an existing stub (requires mgr.mu or an otherwise
// quiescent entry). WriteJIT invalidates the decode cache, so the change
// is visible to the very next emulated instruction fetch.
func (g *Manager) patchStub(stub, target uint64) {
	ins := isa.MakeRel(isa.JMP, target)
	ins.Addr = stub
	code, err := isa.AppendEncode(nil, ins)
	if err != nil {
		panic(fmt.Sprintf("specmgr: stub encode: %v", err)) // fixed-form JMP cannot fail
	}
	if err := g.m.WriteJIT(stub, code); err != nil {
		panic(fmt.Sprintf("specmgr: stub patch: %v", err)) // stub memory is owned by us
	}
}

// patchJmp retargets one JMP inside the dispatch chain — same
// single-instruction patch as the stub, so it is safe mid-execution.
func (g *Manager) patchJmp(at, target uint64) { g.patchStub(at, target) }

// Addr returns the entry's stable address: callers may bake it into other
// specializations or tables; demotion retargets them all through the
// stub. It is the original function for fully degraded entries. It takes
// no lock: the service's warm hit reads it.
func (e *Entry) Addr() uint64 {
	if stub := e.stub.Load(); stub != 0 {
		return stub
	}
	return e.fn
}

// Fn returns the original function address.
func (e *Entry) Fn() uint64 { return e.fn }

// Degraded reports whether the entry currently runs the original function
// because specialization failed (not because of a deopt, and not because it
// is still pending).
func (e *Entry) Degraded() bool {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	return e.degraded && !e.pending
}

// Pending reports whether the entry awaits its first InstallVariant
// (AdoptPending); its Addr routes to the original function until then.
func (e *Entry) Pending() bool {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	return e.pending
}

// Result returns the primary variant's rewrite result (a degraded
// placeholder for pending, degraded, deopted, or released entries).
func (e *Entry) Result() *brew.Result {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	if p := e.primary; p != nil && p.live.Load() && p.res != nil && !e.pending {
		return p.res
	}
	return &brew.Result{Addr: e.fn, Degraded: true}
}

// Deopted reports whether the entry is deoptimized and why (the reason is
// also set for degraded entries).
func (e *Entry) Deopted() (bool, string) {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	return e.deopted, e.reason
}

// Guarded returns the primary variant's guard accounting (nil for plain,
// pending, or degraded entries); its counters feed the storm policy. Only
// the counters and Matches are meaningful: dispatch runs through the
// entry's inline-cache chain, not the dispatcher brew built.
func (e *Entry) Guarded() *brew.GuardedResult {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	if p := e.primary; p != nil && p.live.Load() {
		return p.gr
	}
	return nil
}

// Variants returns a snapshot of the live variant table in dispatch
// order.
func (e *Entry) Variants() []*Variant {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	return append([]*Variant(nil), e.variants...)
}

// DispatchRange returns the JIT address range of the entry's inline-cache
// dispatch chain, or (0, 0) when no chain exists (at most one
// unconditional variant). Profiler samples landing in the chain belong to
// the entry's dispatch work.
func (e *Entry) DispatchRange() (lo, hi uint64) {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	if e.chain == nil {
		return 0, 0
	}
	return e.chain.addr, e.chain.addr + uint64(e.chain.size)
}

// VariantFor returns the variant the dispatch chain would route args to
// (the unconditional variant on a full miss), or nil when the entry runs
// the original function.
func (e *Entry) VariantFor(args []uint64) *Variant {
	e.mgr.mu.Lock()
	defer e.mgr.mu.Unlock()
	if e.deopted || e.pending || e.released {
		return nil
	}
	for _, v := range e.variants {
		if len(v.key) > 0 && v.gr.Matches(args) {
			return v
		}
	}
	return e.uncondLocked()
}

func (e *Entry) uncondLocked() *Variant {
	for _, v := range e.variants {
		if len(v.key) == 0 {
			return v
		}
	}
	return nil
}

func (e *Entry) hasLiveLocked() bool { return len(e.variants) > 0 }

// prepare is the managed-call entry point: it touches the LRU clock,
// reclaims retired code (the machine is idle here — managed calls are
// serial), performs a lazy respecialization if the entry is deopted and
// the policy allows, and mirrors the chain's dispatch decision into the
// per-variant hit/miss accounting. Returns the call target.
func (e *Entry) prepare(args []uint64) (uint64, error) {
	g := e.mgr
	g.mu.Lock()
	if e.released {
		g.mu.Unlock()
		return 0, ErrReleased
	}
	g.clock++
	e.lastUse = g.clock
	g.compactLocked(e)
	if e.deopted && g.pol.Respecialize && !e.respecDone {
		e.respecDone = true
		g.respecializeLocked(e) // drops and reacquires g.mu
	}
	e.noteDispatchLocked(g, args)
	target := e.Addr()
	g.mu.Unlock()
	return target, nil
}

// noteDispatchLocked replays the chain's dispatch decision over the live
// variants in chain order: guard accounting (hit/miss/streak) for every
// guarded variant up to and including the one that matches, and a
// call-hotness bump for the variant that will run.
func (e *Entry) noteDispatchLocked(g *Manager, args []uint64) {
	if e.deopted || e.pending || e.released {
		return
	}
	var uncond *Variant
	for _, v := range e.variants {
		if len(v.key) == 0 {
			uncond = v
			continue
		}
		hit := v.gr.Matches(args)
		v.gr.Note(hit)
		if hit {
			v.hotCalls.Add(1)
			g.clock++
			v.lastUse = g.clock
			return
		}
	}
	if uncond != nil {
		uncond.hotCalls.Add(1)
		g.clock++
		uncond.lastUse = g.clock
	}
}

// Call invokes the entry with guard accounting and the adaptive demotion
// policy applied. The machine must not be executing concurrently.
func (e *Entry) Call(args ...uint64) (uint64, error) {
	e.hotCalls.Add(1)
	target, err := e.prepare(args)
	if err != nil {
		return 0, err
	}
	ret, cerr := e.mgr.m.Call(target, args...)
	e.mgr.checkStorm(e)
	return ret, cerr
}

// CallFloat is Call for float-returning functions. Guard dispatch is on
// the integer arguments, as in the chain itself.
func (e *Entry) CallFloat(intArgs []uint64, fArgs []float64) (float64, error) {
	e.hotCalls.Add(1)
	target, err := e.prepare(intArgs)
	if err != nil {
		return 0, err
	}
	ret, cerr := e.mgr.m.CallFloat(target, intArgs, fArgs)
	e.mgr.checkStorm(e)
	return ret, cerr
}

// checkStorm applies the consecutive-miss demotion policy after a managed
// call: any guarded variant whose miss streak reached the limit is
// evidently no longer a hot case and is demoted (only that variant — the
// rest of the table keeps serving).
func (g *Manager) checkStorm(e *Entry) {
	if g.pol.GuardMissLimit == 0 {
		return
	}
	g.mu.Lock()
	for _, v := range append([]*Variant(nil), e.variants...) {
		if v.live.Load() && len(v.key) > 0 && v.gr.MissStreak() >= g.pol.GuardMissLimit {
			emitVariant(obs.KindGuardStorm, e, v, DeoptGuardStorm)
			g.demoteVariantLocked(e, v, DeoptGuardStorm)
		}
	}
	g.mu.Unlock()
}

// Deopt manually deoptimizes an entry: every live variant is demoted, the
// stub is patched back to the original function and the assumption
// watchpoints are removed. The specialized code stays allocated until the
// next idle-point compaction, respecialization or release (it may still
// be on the emulated call stack).
func (g *Manager) Deopt(e *Entry, reason string) {
	if reason == "" {
		reason = DeoptManual
	}
	g.mu.Lock()
	for _, v := range append([]*Variant(nil), e.variants...) {
		g.demoteVariantLocked(e, v, reason)
	}
	g.mu.Unlock()
}

// respecializeLocked re-runs the primary rewrite against current memory.
// Called with mgr.mu held; releases it around the (slow) rewrite.
func (g *Manager) respecializeLocked(e *Entry) {
	// The machine is idle here (managed calls are serial), so retired and
	// demoted code is not on the call stack and is reclaimed before the
	// rewrite — respecialization must not leak toward code-buffer
	// exhaustion.
	for _, v := range append([]*Variant(nil), e.variants...) {
		g.retireVariantLocked(v)
	}
	g.compactLocked(e)
	cfg, fn, guards := e.cfg, e.fn, e.guards
	args, fargs := e.args, e.fargs
	g.mu.Unlock()

	out, err := brew.Do(g.m, &brew.Request{
		Config: cfg, Fn: fn, Args: args, FArgs: fargs, Guards: guards,
	})

	g.mu.Lock()
	if e.released || !e.deopted {
		// Evicted — or revived by a concurrent install — while rewriting:
		// drop the fresh code again.
		if err == nil {
			freeOutcome(g.m, out)
		}
		return
	}
	if err != nil {
		// Stay deoptimized at generic speed; the stub already routes to
		// the original function. Next deopt (i.e. never, until a manual
		// one) may retry.
		e.degraded = true
		e.reason = brew.DegradeReason(err)
		return
	}
	v := g.installOutcomeLocked(e, cfg, guards, args, fargs, out)
	if v == nil {
		return
	}
	e.primary = v
}

// Release removes an entry and frees its stub, variant bodies and
// dispatch chain. The entry must not be called afterwards and its Addr
// must no longer be used.
func (g *Manager) Release(e *Entry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.entries[e.fn] == e {
		delete(g.entries, e.fn)
	}
	g.releaseLocked(e)
}

func (g *Manager) releaseLocked(e *Entry) {
	if e.released {
		return
	}
	e.released = true
	for _, v := range e.variants {
		g.disarmVariantWatches(v)
		v.live.Store(false)
		if v.res != nil && !v.res.Degraded {
			_ = g.m.FreeJIT(v.res.Addr)
		}
		v.res = nil
		v.gr = nil
	}
	e.variants = nil
	for _, v := range e.retired {
		if v.res != nil && !v.res.Degraded {
			_ = g.m.FreeJIT(v.res.Addr)
		}
		v.res = nil
		v.gr = nil
	}
	e.retired = nil
	if e.chain != nil {
		_ = g.m.FreeJIT(e.chain.addr)
		e.chain = nil
	}
	if stub := e.stub.Load(); stub != 0 {
		e.stub.Store(0)
		_ = g.m.FreeJIT(stub)
	}
}

// evictOverLimitLocked evicts least-recently-used entries (never keep,
// the just-registered entry) until the policy limit holds.
func (g *Manager) evictOverLimitLocked(keep *Entry) {
	for g.pol.MaxLive > 0 && len(g.entries) > g.pol.MaxLive {
		var victim *Entry
		for _, e := range g.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(g.entries, victim.fn)
		g.releaseLocked(victim)
		emitVariant(obs.KindVariantEvict, victim, nil, "entry-lru")
	}
}
