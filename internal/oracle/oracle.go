// Package oracle implements a differential-execution harness for the BREW
// rewriter: the executable form of the paper's central invariant (DESIGN.md
// §5) that a rewritten function is a drop-in replacement for the original —
// same results, same stores, same faulting behaviour — for every argument
// vector consistent with the declared known values.
//
// A Case describes how to build a machine with the function under test and
// how to generate consistent argument vectors. Run builds two identical
// instances, rewrites the function on one of them, and executes every trial
// on both: the original on the first machine, the rewritten code on the
// second. Both runs start from identical CPU and memory state and record a
// complete store journal through the VM's OnStoreValue hook. The harness
// compares return registers, callee-saved registers, the ordered journal of
// non-stack stores, final memory of all writable regions, and whether the
// run faulted. The first divergence is minimized over the unknown
// parameters and reported with disassembly context.
package oracle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/specmgr"
	"repro/internal/vm"
)

// StoreRec is one journaled store: address, byte size and the stored value
// (low size*8 bits).
type StoreRec struct {
	Addr uint64
	Size int
	Val  uint64
}

func (s StoreRec) String() string {
	return fmt.Sprintf("[0x%x]%d <- 0x%x", s.Addr, s.Size, s.Val)
}

// Instance is one freshly built machine with the function under test and
// its rewrite configuration. Build functions must be deterministic: two
// calls must produce machines with identical memory content and identical
// addresses, so that the original and the rewritten run start from the
// same world.
type Instance struct {
	M     *vm.Machine
	Fn    uint64
	Cfg   *brew.Config
	Args  []uint64  // rewrite-time parameter setting (brew_rewrite args)
	FArgs []float64 // rewrite-time float parameter setting
}

// Case describes one differential check.
type Case struct {
	Name string
	// Build constructs a fresh instance. It is called at least twice per
	// Run (original machine, rewritten machine) and must be deterministic.
	Build func() (*Instance, error)
	// NewArgs generates one argument vector consistent with the declared
	// known parameters (known parameters must carry the rewrite-time
	// values).
	NewArgs func(r *rand.Rand) ([]uint64, []float64)
	// Float selects the float calling convention (CallFloat, compare F0)
	// instead of the integer one (Call, compare R0).
	Float bool
	// Trials is the number of argument vectors to test (default 6).
	Trials int
	// StepLimit bounds each run (default 8M instructions).
	StepLimit int64
	// SkipStoreOrder disables the ordered store-journal comparison and
	// relies on the final-memory comparison only. Needed for rewrites that
	// legitimately restructure stores (e.g. vectorization).
	SkipStoreOrder bool
	// Degrade runs brew.Do under ModeDegrade: a rewrite failure is no
	// longer a skip but a degraded result addressing the original
	// function, and the differential check then verifies the degraded path
	// is a faithful drop-in too. Combined with Inject this
	// cross-checks the fault-injected fallback paths.
	Degrade bool
	// Inject, when non-nil, is installed as the rewrite configuration's
	// fault-injection hook (brew.Config.Inject) on the rewritten instance.
	Inject func(site string) error
	// Effort overrides the rewrite tier on the rewritten instance
	// (default EffortFull). Running the same case at brew.EffortQuick
	// checks that the tier-0 pipeline — trace with constant folding, no
	// optimization passes — is observably equivalent too: a quick
	// pipeline must never trade correctness for speed.
	Effort brew.Effort
	// VariantGuards, when non-empty, verifies the multi-version dispatch
	// path instead of a single raw rewrite: each guard set is traced and
	// installed as one variant of a specmgr variant-table entry on the
	// rewritten machine, and every trial calls the entry's stable stub
	// address. Argument vectors matching any variant's guards must be
	// served by that specialized body, and vectors missing them all must
	// fall through the inline-cache chain to the original — both
	// observably equivalent to the original run. Any install failure is a
	// skip (RewriteErr), like a rewriter refusal. Incompatible with
	// Degrade and Inject.
	VariantGuards [][]brew.ParamGuard
}

// CaseResult is the outcome of one differential case.
type CaseResult struct {
	Name   string
	Trials int
	// RewriteErr is set when the rewriter refused the function (a typed,
	// non-catastrophic failure per Section III.G) — the case is skipped,
	// not failed.
	RewriteErr error
	// Degraded reports that a Degrade-mode case fell back to the original
	// function (RewriteErr then holds the cause and the case still ran).
	Degraded bool
	// Moved reports that a persist-mode case adopted its body at an address
	// other than the one it was captured at (RunPersist).
	Moved bool
	// Divergence is non-nil when the invariant was violated.
	Divergence *Divergence
}

// outcome captures everything observable about one run.
type outcome struct {
	fault     error
	ret       uint64
	fret      uint64 // F0 bits
	calleeInt [6]uint64
	calleeF   [6]uint64
	stores    []StoreRec
}

// dspan is one dirtied byte range.
type dspan struct {
	addr uint64
	size int
}

// machState is one machine plus the bookkeeping to roll it back to its
// post-rewrite state between trials. The snapshot copies what the machine
// had committed, and a rollback only the bytes the last run stored to, so
// a trial costs what the guest touched, not the ~80 MB it has mapped.
type machState struct {
	inst  *Instance
	snap  map[*mem.Segment]window // the writable segments' committed bytes
	dirty []dspan                 // spans stored to since the last rollback
}

// window is a copy of a segment's committed bytes [lo, lo+len(data)); every
// byte of the segment outside it was zero when the copy was taken.
type window struct {
	lo   uint64
	data []byte
}

// harness pairs the two instances with their post-rewrite snapshots.
type harness struct {
	c          Case
	orig, rewr *machState
	rewrAddr   uint64
	result     *brew.Result // the rewrite under test, for its listing
	stepLimit  int64
	degraded   bool
	degradeErr error
}

// Run executes one differential case. The returned error reports harness
// failures (nondeterministic Build, execution setup problems); rewriter
// refusals and divergences are reported in the CaseResult.
func Run(c Case, seed int64) (*CaseResult, error) {
	res := &CaseResult{Name: c.Name}
	h, err := newHarness(c)
	if err != nil {
		return nil, err
	}
	if h == nil { // rewriter refused
		res.RewriteErr = hErr(c)
		return res, nil
	}
	if h.degraded {
		res.Degraded = true
		res.RewriteErr = h.degradeErr
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 6
	}
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		args, fargs := c.NewArgs(r)
		d, err := h.diff(args, fargs)
		if err != nil {
			return nil, err
		}
		res.Trials++
		if d != nil {
			h.minimize(d)
			h.decorate(d)
			res.Divergence = d
			return res, nil
		}
	}
	return res, nil
}

// hErr re-runs the rewrite to recover the refusal error (newHarness
// returned nil). Build determinism makes this exact.
func hErr(c Case) error {
	inst, err := c.Build()
	if err != nil {
		return err
	}
	inst.Cfg.Effort = c.Effort
	if len(c.VariantGuards) > 0 {
		_, _, rerr := installVariants(c, inst)
		if rerr == nil {
			rerr = fmt.Errorf("oracle %s: variant install refused", c.Name)
		}
		return rerr
	}
	_, rerr := brew.Do(inst.M, &brew.Request{
		Config: inst.Cfg, Fn: inst.Fn, Args: inst.Args, FArgs: inst.FArgs,
	})
	return rerr
}

// installVariants builds a variant-table entry on inst's machine with one
// variant per guard set in c.VariantGuards. A nil entry with a nil error
// means an install was refused without a cause we can surface (the
// outcome was degraded without an error).
func installVariants(c Case, inst *Instance) (*specmgr.Manager, *specmgr.Entry, error) {
	mgr := specmgr.New(inst.M, specmgr.Policy{})
	e, rerr := mgr.SpecializeGuarded(inst.Cfg, inst.Fn, c.VariantGuards[0], inst.Args, inst.FArgs)
	if rerr != nil || e.Degraded() {
		return nil, nil, rerr
	}
	for _, gs := range c.VariantGuards[1:] {
		out, derr := brew.Do(inst.M, &brew.Request{
			Config: inst.Cfg, Fn: inst.Fn, Guards: gs,
			Args: inst.Args, FArgs: inst.FArgs, Mode: brew.ModeDegrade,
		})
		if _, ok := mgr.InstallVariant(e, inst.Cfg, gs, inst.Args, inst.FArgs, out, derr); !ok {
			return nil, nil, derr
		}
	}
	return mgr, e, nil
}

func newHarness(c Case) (*harness, error) {
	orig, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
	}
	rewr, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
	}
	if orig.Fn != rewr.Fn {
		return nil, fmt.Errorf("oracle %s: nondeterministic build: fn 0x%x vs 0x%x", c.Name, orig.Fn, rewr.Fn)
	}
	if c.Inject != nil {
		rewr.Cfg.Inject = c.Inject
	}
	rewr.Cfg.Effort = c.Effort
	if len(c.VariantGuards) > 0 {
		// Multi-version path: the trials run through the entry's stub and
		// inline-cache dispatch chain. The snapshots are taken after every
		// install, so trial rollbacks keep the table's code intact (it
		// lives in the excluded jit segment anyway).
		_, e, rerr := installVariants(c, rewr)
		if e == nil {
			_ = rerr
			return nil, nil // refusal; Run re-derives the error
		}
		h := &harness{
			c:        c,
			orig:     &machState{inst: orig, snap: snapshot(orig.M)},
			rewr:     &machState{inst: rewr, snap: snapshot(rewr.M)},
			rewrAddr: e.Addr(),
			result:   e.Result(),
		}
		h.stepLimit = c.StepLimit
		if h.stepLimit <= 0 {
			h.stepLimit = 8 << 20
		}
		return h, nil
	}
	req := &brew.Request{Config: rewr.Cfg, Fn: rewr.Fn, Args: rewr.Args, FArgs: rewr.FArgs}
	if c.Degrade {
		// Never a skip: a failed rewrite degrades to the original entry,
		// and the differential check runs against that fallback.
		req.Mode = brew.ModeDegrade
	}
	out, rerr := brew.Do(rewr.M, req)
	if !c.Degrade && rerr != nil {
		return nil, nil // refusal; Run re-derives the error
	}
	res := out.Result
	h := &harness{
		c:        c,
		orig:     &machState{inst: orig, snap: snapshot(orig.M)},
		rewr:     &machState{inst: rewr, snap: snapshot(rewr.M)},
		rewrAddr: res.Addr,
		result:   res,
		degraded: res.Degraded,
	}
	if res.Degraded {
		h.degradeErr = rerr
	}
	h.stepLimit = c.StepLimit
	if h.stepLimit <= 0 {
		h.stepLimit = 8 << 20
	}
	return h, nil
}

// snapshot copies every writable segment's committed window.
func snapshot(m *vm.Machine) map[*mem.Segment]window {
	out := make(map[*mem.Segment]window)
	for _, s := range m.Mem.Segments() {
		if s.Perm&mem.PermWrite != 0 {
			out[s] = window{s.Lo, bytes.Clone(s.Data)}
		}
	}
	return out
}

// rollback undoes every store of the previous run: the dirtied bytes the
// snapshot holds are copied back, the ones it does not — committed since —
// were zero and are zeroed. (A store commits what it writes and windows
// only grow, so every dirtied byte lies inside today's window.)
func (ms *machState) rollback() {
	m := ms.inst.M.Mem
	for _, d := range ms.dirty {
		s := m.Find(d.addr)
		if s == nil {
			continue
		}
		ref, ok := ms.snap[s]
		if !ok {
			continue
		}
		lo, hi := max(d.addr, s.Lo), min(d.addr+uint64(d.size), s.Lo+uint64(len(s.Data)))
		if lo >= hi {
			continue
		}
		dst := s.Data[lo-s.Lo : hi-s.Lo]
		clear(dst)
		if from, to := max(lo, ref.lo), min(hi, ref.lo+uint64(len(ref.data))); from < to {
			copy(dst[from-lo:], ref.data[from-ref.lo:to-ref.lo])
		}
	}
	ms.dirty = ms.dirty[:0]
}

// resetCPU puts the register file into the canonical pre-call state both
// machines started from.
func resetCPU(m *vm.Machine) {
	m.CPU = vm.CPU{}
	m.CPU.R[isa.SP] = vm.StackTop - 64
}

// inStack reports whether addr falls into the simulated stack segment.
// Stack traffic is excluded from the equivalence contract: the rewriter is
// free to lay out private frames differently (dead frame stores, frame
// shrinking, inlining).
func inStack(addr uint64) bool {
	return addr >= vm.StackTop-vm.StackSize && addr < vm.StackTop
}

// runOne executes fn on ms's machine with the canonical initial state and
// captures the outcome.
func (h *harness) runOne(ms *machState, fn uint64, args []uint64, fargs []float64) outcome {
	m := ms.inst.M
	ms.rollback()
	resetCPU(m)
	m.UserStepLimit = h.stepLimit
	var o outcome
	m.OnStoreValue = func(addr uint64, size int, val uint64) {
		ms.dirty = append(ms.dirty, dspan{addr, size})
		if !inStack(addr) {
			o.stores = append(o.stores, StoreRec{addr, size, val})
		}
	}
	if h.c.Float {
		_, o.fault = m.CallFloat(fn, args, fargs)
	} else {
		_, o.fault = m.Call(fn, args...)
	}
	m.OnStoreValue = nil
	o.ret = m.CPU.R[isa.IntRet]
	o.fret = math.Float64bits(m.CPU.F[0])
	for i, r := range []isa.Reg{isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.SP} {
		o.calleeInt[i] = m.CPU.R[r]
	}
	for i := 0; i < 6; i++ {
		o.calleeF[i] = math.Float64bits(m.CPU.F[10+i])
	}
	return o
}

// diff runs one argument vector on both machines and compares the
// outcomes. A nil Divergence means the runs were equivalent.
func (h *harness) diff(args []uint64, fargs []float64) (*Divergence, error) {
	oo := h.runOne(h.orig, h.orig.inst.Fn, args, fargs)
	or := h.runOne(h.rewr, h.rewrAddr, args, fargs)
	d := h.compare(&oo, &or)
	if d != nil {
		d.Case = h.c.Name
		d.Args = append([]uint64(nil), args...)
		d.FArgs = append([]float64(nil), fargs...)
	}
	return d, nil
}

func (h *harness) compare(oo, or *outcome) *Divergence {
	if (oo.fault == nil) != (or.fault == nil) {
		return &Divergence{Kind: "fault",
			Detail: fmt.Sprintf("original fault: %v, rewritten fault: %v", oo.fault, or.fault)}
	}
	if oo.fault != nil {
		// Both faulted: the contract only requires matching faulting
		// behaviour, not matching partial progress.
		return nil
	}
	if !h.c.Float && oo.ret != or.ret {
		return &Divergence{Kind: "return",
			Detail: fmt.Sprintf("R0: original 0x%x (%d), rewritten 0x%x (%d)", oo.ret, int64(oo.ret), or.ret, int64(or.ret))}
	}
	if h.c.Float && oo.fret != or.fret {
		return &Divergence{Kind: "float-return",
			Detail: fmt.Sprintf("F0: original %g (0x%x), rewritten %g (0x%x)",
				math.Float64frombits(oo.fret), oo.fret, math.Float64frombits(or.fret), or.fret)}
	}
	if oo.calleeInt != or.calleeInt || oo.calleeF != or.calleeF {
		return &Divergence{Kind: "callee-saved",
			Detail: fmt.Sprintf("callee-saved state: original R10-R14/SP %v F10-F15 %v, rewritten %v / %v",
				oo.calleeInt, oo.calleeF, or.calleeInt, or.calleeF)}
	}
	if !h.c.SkipStoreOrder {
		if d := compareStores(oo.stores, or.stores); d != nil {
			return d
		}
	}
	return h.compareMemory()
}

// compareStores matches the two journals element by element.
func compareStores(a, b []StoreRec) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return &Divergence{Kind: "store",
				Detail: fmt.Sprintf("store #%d: original %v, rewritten %v\n%s",
					i, a[i], b[i], journalContext(a, b, i))}
		}
	}
	if len(a) != len(b) {
		return &Divergence{Kind: "store-count",
			Detail: fmt.Sprintf("original performed %d non-stack stores, rewritten %d\n%s",
				len(a), len(b), journalContext(a, b, n))}
	}
	return nil
}

// journalContext renders a few entries around the first mismatch.
func journalContext(a, b []StoreRec, at int) string {
	lo := at - 2
	if lo < 0 {
		lo = 0
	}
	out := "journal context (original | rewritten):\n"
	for i := lo; i <= at+2; i++ {
		l, r := "-", "-"
		if i < len(a) {
			l = a[i].String()
		}
		if i < len(b) {
			r = b[i].String()
		}
		mark := "  "
		if i == at {
			mark = "->"
		}
		out += fmt.Sprintf("  %s #%d: %-32s | %s\n", mark, i, l, r)
	}
	return out
}

// compareMemory diffs final memory of all writable regions, excluding the
// stack (private frames differ by design) and the JIT segment (it holds
// the rewritten code itself on one side). The two machines need not have
// committed the same windows: a byte outside one reads as zero.
func (h *harness) compareMemory() *Divergence {
	segsO := h.orig.inst.M.Mem.Segments()
	segsR := h.rewr.inst.M.Mem.Segments()
	for i, so := range segsO {
		if so.Perm&mem.PermWrite == 0 || so.Name == "stack" || so.Name == "jit" {
			continue
		}
		addr, differ := firstDifference(so, segsR[i])
		if !differ {
			continue
		}
		vo, _ := h.orig.inst.M.Mem.Read64(addr &^ 7)
		vr, _ := h.rewr.inst.M.Mem.Read64(addr &^ 7)
		return &Divergence{Kind: "memory",
			Detail: fmt.Sprintf("final memory differs in %q at 0x%x: original word 0x%x, rewritten 0x%x",
				so.Name, addr, vo, vr)}
	}
	return nil
}

// firstDifference returns the lowest address at which two segments mapped
// at the same place hold different bytes.
func firstDifference(a, b *mem.Segment) (addr uint64, differ bool) {
	if a.Lo == b.Lo && bytes.Equal(a.Data, b.Data) {
		return 0, false
	}
	// committed returns s's bytes in [lo, hi), a range that lies either
	// wholly inside or wholly outside s's window; nil outside.
	committed := func(s *mem.Segment, lo, hi uint64) []byte {
		if lo < s.Lo || hi > s.Lo+uint64(len(s.Data)) {
			return nil
		}
		return s.Data[lo-s.Lo : hi-s.Lo]
	}
	// Between two neighbouring window edges each side is one or the other.
	edges := []uint64{a.Lo, a.Lo + uint64(len(a.Data)), b.Lo, b.Lo + uint64(len(b.Data))}
	slices.Sort(edges)
	for i := 0; i+1 < len(edges); i++ {
		lo, hi := edges[i], edges[i+1]
		xa, xb := committed(a, lo, hi), committed(b, lo, hi)
		if xa != nil && xb != nil && bytes.Equal(xa, xb) {
			continue
		}
		for off := uint64(0); off < hi-lo; off++ {
			var ba, bb byte
			if xa != nil {
				ba = xa[off]
			}
			if xb != nil {
				bb = xb[off]
			}
			if ba != bb {
				return lo + off, true
			}
		}
	}
	return 0, false
}

// minimize shrinks the diverging argument vector: every parameter not
// declared known is driven toward small values while the divergence
// persists. Known parameters are pinned — changing them would violate the
// contract under test.
func (h *harness) minimize(d *Divergence) {
	diverges := func(args []uint64, fargs []float64) bool {
		dd, err := h.diff(args, fargs)
		return err == nil && dd != nil && dd.Kind == d.Kind
	}
	args := append([]uint64(nil), d.Args...)
	fargs := append([]float64(nil), d.FArgs...)
	for i := range args {
		if cls, _ := h.orig.inst.Cfg.IntParamClass(i + 1); cls != brew.ParamUnknown {
			continue
		}
		// Simplest first; keep the first replacement that still diverges.
		keep := args[i]
		for _, cand := range []uint64{0, 1, 2, keep >> 32, keep & 0xff, keep & 0xffff, keep / 2} {
			if cand == keep {
				continue
			}
			args[i] = cand
			if diverges(args, fargs) {
				keep = cand
				break
			}
		}
		args[i] = keep
	}
	for i := range fargs {
		if h.orig.inst.Cfg.FloatParamClass(i+1) != brew.ParamUnknown {
			continue
		}
		keep := fargs[i]
		for _, cand := range []float64{0, 1} {
			if cand == keep {
				continue
			}
			fargs[i] = cand
			if diverges(args, fargs) {
				keep = cand
				break
			}
		}
		fargs[i] = keep
	}
	if diverges(args, fargs) {
		d.MinArgs = args
		d.MinFArgs = fargs
	}
}

// decorate attaches disassembly context: a window of the original function
// and the rewriter's block listing.
func (h *harness) decorate(d *Divergence) {
	const window = 160
	fn := h.orig.inst.Fn
	if b, err := h.orig.inst.M.Mem.ReadBytes(fn, window); err == nil {
		d.OrigDisasm = isa.Disassemble(b, fn, true)
	}
	d.RewrListing = h.result.Listing()
}
