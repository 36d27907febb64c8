package specmgr

import (
	"sort"
	"sync/atomic"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Variant is one live specialized body in an Entry's variant table, keyed
// on the guard conditions it was built for (an empty key marks the
// unconditional variant — at most one per entry). Variants have their own
// lifecycle: a guard-miss storm or assumption violation demotes only the
// offending variant, and cold variants are evicted individually (LRU
// within the table, bounded by Policy.MaxVariants).
type Variant struct {
	e *Entry

	// Hotness counters, atomic for the same reason as the Entry ones: the
	// call path and the profiler feed never take mgr.mu.
	hotCalls   atomic.Uint64
	hotSamples atomic.Uint64

	// live reports the variant dispatched to. Written under mgr.mu; Live
	// reads it without the lock.
	live atomic.Bool

	// Everything below is guarded by mgr.mu.
	key     []brew.ParamGuard // sorted guards; empty = unconditional
	res     *brew.Result
	gr      *brew.GuardedResult // counters/Matches only; its dispatcher code is freed at install
	cfg     *brew.Config
	args    []uint64
	fargs   []float64
	watches []*vm.Watch
	tier    brew.Effort
	lastUse uint64

	// Inline-cache chain anchors: jmpAddr is this variant's "jmp body"
	// instruction inside the chain (0 when no chain covers it), nextAddr
	// the following block's start — the demotion patch target.
	jmpAddr  uint64
	nextAddr uint64
}

// dispatchChain is the entry-owned inline-cache dispatcher: one compare
// block per guarded variant, falling through to the unconditional variant
// or the original function.
type dispatchChain struct {
	addr     uint64
	size     int
	finalJmp uint64 // the fall-through JMP (patched when the unconditional variant demotes)
}

// NoteCall bumps the variant's call-hotness counter (the service bumps it
// when its dispatch accounting attributes a managed call to this variant).
func (v *Variant) NoteCall() { v.hotCalls.Add(1) }

// NoteSample attributes one sampling-profiler hit to the variant's body.
func (v *Variant) NoteSample() { v.hotSamples.Add(1) }

// Hotness returns the variant's accumulated hotness counters.
func (v *Variant) Hotness() (calls, samples uint64) {
	return v.hotCalls.Load(), v.hotSamples.Load()
}

// Entry returns the owning entry.
func (v *Variant) Entry() *Entry { return v.e }

// Key returns a copy of the variant's guard key (empty for the
// unconditional variant).
func (v *Variant) Key() []brew.ParamGuard {
	v.e.mgr.mu.Lock()
	defer v.e.mgr.mu.Unlock()
	return append([]brew.ParamGuard(nil), v.key...)
}

// Live reports whether the variant is still dispatched to. Demoted or
// evicted variants stay false forever (a reinstall under the same key
// creates a fresh Variant). It takes no lock: the service's warm hit
// reads it.
func (v *Variant) Live() bool { return v.live.Load() }

// Result returns the variant's rewrite result (nil once the variant was
// demoted and its body reclaimed).
func (v *Variant) Result() *brew.Result {
	v.e.mgr.mu.Lock()
	defer v.e.mgr.mu.Unlock()
	return v.res
}

// Tier returns the effort the variant's body was rewritten at.
func (v *Variant) Tier() brew.Effort {
	v.e.mgr.mu.Lock()
	defer v.e.mgr.mu.Unlock()
	return v.tier
}

// Guarded returns the variant's guard accounting (nil for the
// unconditional variant). Only the counters and Matches are meaningful:
// the dispatcher code brew built was replaced by the entry's chain and
// freed at install time.
func (v *Variant) Guarded() *brew.GuardedResult {
	v.e.mgr.mu.Lock()
	defer v.e.mgr.mu.Unlock()
	return v.gr
}

// normalizeGuards returns a sorted copy so variant keys compare
// order-independently.
func normalizeGuards(gs []brew.ParamGuard) []brew.ParamGuard {
	if len(gs) == 0 {
		return nil
	}
	out := append([]brew.ParamGuard(nil), gs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Param != out[j].Param {
			return out[i].Param < out[j].Param
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func guardsEqual(a, b []brew.ParamGuard) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InstallVariant installs the outcome of a rewrite as one variant of e's
// table, keyed on guards (nil guards install the unconditional variant).
// On a pending entry (AdoptPending) it completes the rewrite-behind: the
// first successful install becomes the primary variant, and every caller
// holding the entry's Addr switches to it at the next emulated fetch. It
// also revives a degraded or deopted entry, a same-key install replaces
// that variant's body, and installing over Policy.MaxVariants evicts the
// coldest variant. On a degraded outcome — or when the entry was released or has
// no stub — the fresh code is freed and the table is untouched. Like
// every install it requires an idle machine (the rewrite contract).
func (g *Manager) InstallVariant(e *Entry, cfg *brew.Config, guards []brew.ParamGuard, args []uint64, fargs []float64, out *brew.Outcome, rerr error) (*Variant, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.released {
		freeOutcome(g.m, out)
		return nil, false
	}
	wasPending := e.pending
	e.pending = false
	if out == nil || out.Degraded || rerr != nil {
		freeOutcome(g.m, out)
		reason := ""
		if out != nil && out.Reason != "" {
			reason = out.Reason
		} else if rerr != nil {
			reason = brew.DegradeReason(rerr)
		}
		if !e.hasLiveLocked() {
			e.degraded = true
			if reason != "" {
				e.reason = reason
			}
		}
		emitDegrade(e, reason)
		return nil, false
	}
	if e.stub.Load() == 0 {
		freeOutcome(g.m, out)
		if !e.hasLiveLocked() {
			e.degraded = true
			e.reason = brew.ReasonCodeBuffer
		}
		emitDegrade(e, brew.ReasonCodeBuffer)
		return nil, false
	}
	v := g.installOutcomeLocked(e, cfg, guards, args, fargs, out)
	if v == nil {
		emitDegrade(e, e.reason)
		return nil, false
	}
	if wasPending || e.primary == nil || !e.primary.live.Load() {
		e.primary = v
	}
	g.clock++
	e.lastUse = g.clock
	return v, true
}

// RepromoteVariant hot-swaps one live variant's body for the outcome of a
// re-rewrite at a different effort — tier promotion at variant
// granularity. A non-nil cfg replaces the variant's retained
// configuration (and the entry's, for the primary variant), so later
// respecializations stay at the promoted tier. The swap is refused (and
// the fresh code freed) when the entry was released or pending, the
// variant was demoted or evicted while the rewrite ran — a deopted or
// degraded entry has no live variant — or the outcome is degraded: the
// variant then keeps serving what it served before. Requires an idle
// machine.
func (g *Manager) RepromoteVariant(e *Entry, v *Variant, cfg *brew.Config, out *brew.Outcome, rerr error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.repromoteVariantLocked(e, v, cfg, out, rerr)
}

func (g *Manager) repromoteVariantLocked(e *Entry, v *Variant, cfg *brew.Config, out *brew.Outcome, rerr error) bool {
	if e.released || e.pending || v == nil || v.e != e || !v.live.Load() || e.stub.Load() == 0 ||
		out == nil || out.Degraded || rerr != nil {
		freeOutcome(g.m, out)
		return false
	}
	g.disarmVariantWatches(v)
	if v.res != nil && !v.res.Degraded {
		_ = g.m.FreeJIT(v.res.Addr) // idle: the old body is not on the call stack
	}
	v.res = out.Result
	v.gr = nil
	if gr := out.Guarded; gr != nil {
		_ = g.m.FreeJIT(gr.Addr) // chain dispatch replaces the built-in dispatcher
		v.gr = gr
	}
	if cfg != nil {
		v.cfg = cfg
		if v == e.primary {
			e.cfg = cfg
		}
	}
	v.tier = v.cfg.Effort
	e.reason = ""
	// Retarget the variant's dispatch point at the new body.
	switch {
	case len(v.key) > 0 && v.jmpAddr != 0:
		g.patchJmp(v.jmpAddr, v.res.Addr)
	case len(v.key) == 0 && e.chain != nil:
		g.patchJmp(e.chain.finalJmp, v.res.Addr)
	default:
		g.patchStub(e.stub.Load(), v.res.Addr)
	}
	g.armVariantWatches(v)
	g.clock++
	e.lastUse = g.clock
	v.lastUse = g.clock
	g.compactLocked(e)
	return true
}

// RemoveVariant demotes and reclaims one variant (service cache eviction).
// Requires an idle machine: unlike a mid-execution demotion, the body is
// freed immediately.
func (g *Manager) RemoveVariant(e *Entry, v *Variant) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.released || v == nil || !v.live.Load() {
		return
	}
	g.demoteVariantLocked(e, v, DeoptEvicted)
	emitVariant(obs.KindVariantEvict, e, v, DeoptEvicted)
	g.compactLocked(e)
}

// installOutcomeLocked is the install core shared by Specialize,
// InstallVariant and respecialization: it adopts the outcome's body as a
// (new or same-key replacement) variant, applies the per-table LRU bound,
// rebuilds the dispatch chain and arms the assumption watchpoints.
// Preconditions: mgr.mu held, machine idle, non-degraded outcome, entry
// not released, stub installed. Returns nil — with the entry degraded —
// only when the dispatch chain cannot be allocated.
func (g *Manager) installOutcomeLocked(e *Entry, cfg *brew.Config, guards []brew.ParamGuard, args []uint64, fargs []float64, out *brew.Outcome) *Variant {
	key := normalizeGuards(guards)
	gr := out.Guarded
	if gr != nil {
		// Dispatch runs through the entry's own inline-cache chain; only
		// the GuardedResult's counters are kept (they feed the per-variant
		// miss accounting and the storm policy).
		_ = g.m.FreeJIT(gr.Addr)
	}
	var v *Variant
	for _, lv := range e.variants {
		if guardsEqual(lv.key, key) {
			v = lv
			break
		}
	}
	if v != nil {
		// Same-key replacement: the old body is retired in place.
		g.disarmVariantWatches(v)
		if v.res != nil && !v.res.Degraded {
			_ = g.m.FreeJIT(v.res.Addr)
		}
	} else {
		v = &Variant{e: e, key: key}
		e.variants = append(e.variants, v)
	}
	v.res, v.gr = out.Result, gr
	v.cfg, v.args, v.fargs = cfg, args, fargs
	v.tier = cfg.Effort
	v.live.Store(true)
	g.clock++
	v.lastUse = g.clock

	g.evictVariantsOverLimitLocked(e, v)

	e.pending = false
	e.degraded = false
	e.deopted = false
	e.reason = ""

	if err := g.rebuildDispatchLocked(e); err != nil {
		// No chain, so guarded variants are unreachable: retire them (the
		// machine is idle here, the compact below reclaims the bodies).
		for _, lv := range append([]*Variant(nil), e.variants...) {
			if len(lv.key) > 0 {
				g.retireVariantLocked(lv)
			}
		}
		_ = g.rebuildDispatchLocked(e) // chainless: pure stub patch, cannot fail
		g.compactLocked(e)
		if v.live.Load() { // v was the unconditional variant: still served
			g.armVariantWatches(v)
			return v
		}
		if !e.hasLiveLocked() {
			e.degraded = true
			e.reason = brew.ReasonCodeBuffer
		}
		return nil
	}
	g.armVariantWatches(v)
	g.compactLocked(e)
	emitVariant(obs.KindVariantInstall, e, v, "")
	return v
}

// rebuildDispatchLocked (re)builds the entry's inline-cache dispatch chain
// over its live variants and patches the stub at it. With no guarded
// variants the stub routes straight to the unconditional body (or the
// original function) and no chain exists. Requires an idle machine: the
// old chain is freed immediately.
func (g *Manager) rebuildDispatchLocked(e *Entry) error {
	if e.chain != nil {
		_ = g.m.FreeJIT(e.chain.addr)
		e.chain = nil
	}
	var guarded []*Variant
	var uncond *Variant
	for _, v := range e.variants {
		v.jmpAddr, v.nextAddr = 0, 0
		if len(v.key) == 0 {
			uncond = v
		} else {
			guarded = append(guarded, v)
		}
	}
	stub := e.stub.Load()
	if stub == 0 {
		return nil
	}
	if len(guarded) == 0 {
		if uncond != nil {
			g.patchStub(stub, uncond.res.Addr)
		} else {
			g.patchStub(stub, e.fn)
		}
		return nil
	}

	fallthru := e.fn
	if uncond != nil {
		fallthru = uncond.res.Addr
	}

	// Layout pass: per-variant compare blocks, then the fall-through JMP.
	// Branch encodings are fixed-size rel32, so the sizes computed here
	// hold wherever the chain lands.
	type block struct {
		v      *Variant
		off    int // block start
		jmpOff int // the "jmp body" inside the block
	}
	blocks := make([]block, 0, len(guarded))
	off := 0
	measure := func(ins isa.Instr) (int, error) { return isa.EncodedLen(ins) }
	for _, v := range guarded {
		b := block{v: v, off: off}
		for _, gd := range v.key {
			n, err := measure(isa.MakeRI(isa.CMPI, isa.IntArgRegs[gd.Param-1], int64(gd.Value)))
			if err != nil {
				return err
			}
			off += n
			if n, err = measure(isa.MakeJCC(isa.CondNE, 0)); err != nil {
				return err
			}
			off += n
		}
		b.jmpOff = off
		n, err := measure(isa.MakeRel(isa.JMP, 0))
		if err != nil {
			return err
		}
		off += n
		blocks = append(blocks, b)
	}
	finalOff := off
	n, err := measure(isa.MakeRel(isa.JMP, 0))
	if err != nil {
		return err
	}
	size := off + n

	addr, err := g.m.InstallJIT(size, func(at uint64) ([]byte, error) {
		var code []byte
		emit := func(ins isa.Instr) error {
			ins.Addr = at + uint64(len(code))
			var eerr error
			code, eerr = isa.AppendEncode(code, ins)
			return eerr
		}
		for i, b := range blocks {
			next := at + uint64(finalOff)
			if i+1 < len(blocks) {
				next = at + uint64(blocks[i+1].off)
			}
			for _, gd := range b.v.key {
				if err := emit(isa.MakeRI(isa.CMPI, isa.IntArgRegs[gd.Param-1], int64(gd.Value))); err != nil {
					return nil, err
				}
				if err := emit(isa.MakeJCC(isa.CondNE, next)); err != nil {
					return nil, err
				}
			}
			if err := emit(isa.MakeRel(isa.JMP, b.v.res.Addr)); err != nil {
				return nil, err
			}
		}
		if err := emit(isa.MakeRel(isa.JMP, fallthru)); err != nil {
			return nil, err
		}
		return code, nil
	})
	if err != nil {
		return err
	}
	for i, b := range blocks {
		b.v.jmpAddr = addr + uint64(b.jmpOff)
		if i+1 < len(blocks) {
			b.v.nextAddr = addr + uint64(blocks[i+1].off)
		} else {
			b.v.nextAddr = addr + uint64(finalOff)
		}
	}
	e.chain = &dispatchChain{addr: addr, size: size, finalJmp: addr + uint64(finalOff)}
	g.patchStub(stub, addr)
	return nil
}

// demoteVariantLocked takes one live variant out of service by patching
// its dispatch point away — never freeing code, because the demotion may
// fire from a watchpoint handler while the body is on the emulated call
// stack. The body is reclaimed by the next idle-point compaction. When
// the last live variant demotes, the entry as a whole deoptimizes
// (legacy single-variant semantics: stub to the original, lazy
// respecialization eligible).
func (g *Manager) demoteVariantLocked(e *Entry, v *Variant, reason string) {
	if !v.live.Load() || e.released {
		return
	}
	v.live.Store(false)
	g.disarmVariantWatches(v)
	e.variants = removeFromVariants(e.variants, v)
	e.retired = append(e.retired, v)
	stub := e.stub.Load()
	switch {
	case len(v.key) > 0 && v.jmpAddr != 0:
		g.patchJmp(v.jmpAddr, v.nextAddr)
	case len(v.key) == 0 && e.chain != nil:
		g.patchJmp(e.chain.finalJmp, e.fn)
	case stub != 0:
		g.patchStub(stub, e.fn)
	}
	v.jmpAddr, v.nextAddr = 0, 0
	emitVariant(obs.KindVariantDemote, e, v, reason)
	if !e.hasLiveLocked() && !e.pending && !e.degraded && !e.deopted {
		if stub != 0 {
			g.patchStub(stub, e.fn)
		}
		e.deopted = true
		e.respecDone = false
		e.reason = reason
		emitVariant(obs.KindEntryDeopt, e, nil, reason)
	}
}

// retireVariantLocked drops a variant without patching: only valid at
// idle points where the caller rebuilds the dispatch chain (or releases
// the entry) afterwards.
func (g *Manager) retireVariantLocked(v *Variant) {
	if !v.live.Load() {
		return
	}
	v.live.Store(false)
	g.disarmVariantWatches(v)
	e := v.e
	e.variants = removeFromVariants(e.variants, v)
	e.retired = append(e.retired, v)
	v.jmpAddr, v.nextAddr = 0, 0
}

// compactLocked reclaims retired variant bodies, and the chain itself
// once no live guarded variant needs it. Only called at idle points
// (managed-call entry, install/remove operations, release): demoted code
// may still be on the emulated call stack when the demotion happened.
func (g *Manager) compactLocked(e *Entry) {
	for _, v := range e.retired {
		if v.res != nil && !v.res.Degraded {
			_ = g.m.FreeJIT(v.res.Addr)
		}
		v.res = nil
		v.gr = nil
	}
	e.retired = nil
	if e.chain == nil {
		return
	}
	for _, v := range e.variants {
		if len(v.key) > 0 {
			return // chain still dispatches live guarded variants
		}
	}
	// Route around the chain before freeing it.
	if stub := e.stub.Load(); stub != 0 {
		if u := e.uncondLocked(); u != nil {
			g.patchStub(stub, u.res.Addr)
		} else {
			g.patchStub(stub, e.fn)
		}
	}
	_ = g.m.FreeJIT(e.chain.addr)
	e.chain = nil
}

// evictVariantsOverLimitLocked applies the per-table LRU bound (never
// evicting keep, the just-installed variant). Idle-point only: victims
// are retired and reclaimed by the caller's compact.
func (g *Manager) evictVariantsOverLimitLocked(e *Entry, keep *Variant) {
	for g.pol.MaxVariants > 0 && len(e.variants) > g.pol.MaxVariants {
		var victim *Variant
		for _, v := range e.variants {
			if v == keep {
				continue
			}
			if victim == nil || v.lastUse < victim.lastUse {
				victim = v
			}
		}
		if victim == nil {
			return
		}
		g.retireVariantLocked(victim)
		emitVariant(obs.KindVariantEvict, e, victim, "table-lru")
	}
}

// armVariantWatches installs write-watchpoints over the variant's frozen
// ranges (mgr.mu held). A store into one demotes only this variant.
func (g *Manager) armVariantWatches(v *Variant) {
	e := v.e
	for _, r := range v.cfg.FrozenRanges(v.args) {
		v.watches = append(v.watches, g.m.AddWatch(r.Start, r.End,
			func(*vm.Watch, uint64, int) {
				// Fires from the store path mid-execution, outside mgr.mu
				// (no managed code runs while the lock is held, so this
				// cannot deadlock).
				g.mu.Lock()
				emitVariant(obs.KindWatchHit, e, v, DeoptAssumption)
				g.demoteVariantLocked(e, v, DeoptAssumption)
				g.mu.Unlock()
			}))
	}
}

// disarmVariantWatches removes the variant's watchpoints (mgr.mu held;
// safe during watch dispatch — the VM's watch list is copy-on-write).
func (g *Manager) disarmVariantWatches(v *Variant) {
	for _, w := range v.watches {
		g.m.RemoveWatch(w)
	}
	v.watches = nil
}

func removeFromVariants(vs []*Variant, v *Variant) []*Variant {
	for i, x := range vs {
		if x == v {
			return append(vs[:i], vs[i+1:]...)
		}
	}
	return vs
}

// freeOutcome releases the code a rewrite outcome carries (refused
// installs must not leak the fresh body or dispatcher).
func freeOutcome(m *vm.Machine, out *brew.Outcome) {
	if out == nil || out.Degraded {
		return
	}
	if out.Guarded != nil {
		_ = m.FreeJIT(out.Guarded.Addr)
	}
	if out.Result != nil && !out.Result.Degraded {
		_ = m.FreeJIT(out.Result.Addr)
	}
}
