package brew

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/isa"
	"repro/internal/vm"
)

// tracer carries the state of one rewrite: the block queue, the
// already-generated translations, and the state of the path currently being
// traced. Nothing in it is shared with another request.
type tracer struct {
	cfg    *Config
	m      *vm.Machine
	ranges []MemRange // declared-known memory: config ranges + pointer params

	blocks    []*eblock
	sites     map[variantSite]site
	ctxs      []inlineCtx // interned shadow stacks; ctxs[0] is the empty one
	ctxIndex  map[ctxKey]int
	queued    int // blocks[queued:] with a world are yet to be traced
	tracedN   int
	codeBytes int

	// Current path state. ins and meta collect the current block's body:
	// one pair of buffers serves every block of the request, and a finished
	// block takes an exactly-sized copy. w is the working world (always
	// &wbuf): a copy of the current block's entry snapshot on shared overlays
	// (world.go has the ownership rule).
	cur     *eblock
	ins     []isa.Instr
	meta    []insMeta
	w       *world
	wbuf    world
	ctx     int // current inline context
	curFn   uint64
	curOpts FuncOpts
	pc      uint64
	// snap is the working world frozen for the successors of the block
	// being finished: the first edge that needs a new translation makes it,
	// a second edge (the other side of a branch) reuses it.
	snap *world
	// overCount bounds inline unrolling of unconditional back edges: per
	// jump target, how often the block named in the entry traced over it.
	overCount map[uint64]overTally
	// escapedEver / frameOpaque gate the dead frame-store elimination
	// pass: it only runs when every frame access was precisely
	// attributable and no frame address ever escaped.
	escapedEver bool
	frameOpaque bool

	// rep records per-instruction rewrite decisions for the RewriteReport.
	rep *reportBuilder

	// deadline, when set, bounds wall-clock tracing time (Budget.Deadline).
	deadline time.Time
}

// overTally is a trace-over count that is only meaningful for one block.
type overTally struct {
	block, n int
}

func newTracer(m *vm.Machine, cfg *Config) *tracer {
	t := &tracer{
		cfg:       cfg,
		m:         m,
		sites:     make(map[variantSite]site),
		ctxs:      []inlineCtx{{parent: -1}},
		ctxIndex:  make(map[ctxKey]int),
		overCount: make(map[uint64]overTally),
		rep:       newReportBuilder(),
	}
	t.w = &t.wbuf
	return t
}

// pushCtx returns the inline context that is fr on top of the current one.
func (t *tracer) pushCtx(fr frame) int {
	key := ctxKey{parent: t.ctx, retAddr: fr.retAddr, fn: fr.fn, delta: fr.delta}
	id, ok := t.ctxIndex[key]
	if !ok {
		id = len(t.ctxs)
		t.ctxs = append(t.ctxs, inlineCtx{frame: fr, parent: t.ctx, depth: t.ctxs[t.ctx].depth + 1})
		t.ctxIndex[key] = id
	}
	return id
}

// findBlock returns the existing translation of addr in the current inline
// context whose entry world is the same as w (-1 if there is none), and the
// site's chain. The stored hash only nominates candidates; same() is what
// makes a block the answer. An address nothing was translated at costs one
// map probe and no hash.
func (t *tracer) findBlock(addr uint64, w *world) (int, site) {
	s, ok := t.sites[variantSite{addr, t.ctx}]
	if !ok {
		return -1, site{}
	}
	h := w.hash()
	for id := s.head; id >= 0; id = t.blocks[id].next {
		if b := t.blocks[id]; b.whash == h && same(w, b.world) {
			return id, s
		}
	}
	return -1, s
}

// snapshot freezes the working world as the entry state of the finished
// block's successors. Edges are resolved only while a block is being
// ended — nothing writes the working world between an edge and endBlock —
// so both sides of a branch get the one snapshot, and the overlays are
// handed over, not copied.
func (t *tracer) snapshot() *world {
	if t.snap == nil {
		t.snap = t.w.share()
	}
	return t.snap
}

// newBlock registers a pending translation for (addr, w, current inline
// context). w becomes the block's entry snapshot and must not be written
// afterwards.
func (t *tracer) newBlock(addr uint64, w *world, fn uint64) (int, error) {
	if len(t.blocks) >= t.cfg.MaxBlocks {
		return 0, ErrTooManyBlocks
	}
	b := &eblock{
		id:     len(t.blocks),
		addr:   addr,
		fnAddr: fn, // function containing addr, for per-function options
		world:  w,
		whash:  w.hash(),
		ctx:    t.ctx,
		term:   termEnd,
		succ:   -1,
		jcc:    -1,
		next:   -1,
	}
	t.blocks = append(t.blocks, b)
	key := variantSite{addr, t.ctx}
	s, ok := t.sites[key]
	if ok {
		t.blocks[s.tail].next = b.id
	} else {
		s.head = b.id
	}
	s.tail = b.id
	s.n++
	t.sites[key] = s
	return b.id, nil
}

// run drives the yet-to-be-rewritten queue (paper, Section III.G): blocks
// are traced in the order they were registered; trampolines, which are
// complete when created, are passed over.
func (t *tracer) run(entry uint64, w0 *world) error {
	if _, err := t.newBlock(entry, w0, entry); err != nil {
		return err
	}
	for ; t.queued < len(t.blocks); t.queued++ {
		if t.blocks[t.queued].world == nil {
			continue
		}
		if err := t.traceBlock(t.queued); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) traceBlock(id int) error {
	b := t.blocks[id]
	t.cur = b
	t.ins, t.meta = t.ins[:0], t.meta[:0]
	b.world.shareInto(t.w)
	t.snap = nil
	t.ctx = b.ctx
	t.pc = b.addr
	t.curFn = b.fnAddr
	t.curOpts = t.cfg.optsFor(b.fnAddr)
	if t.cfg.EntryHandler != 0 && id == 0 {
		// Handlers preserve all registers by contract; only the runtime
		// flags are clobbered (Section III.D, injected profiling calls).
		if err := t.emit(isa.MakeRel(isa.CALL, t.cfg.EntryHandler)); err != nil {
			return err
		}
		t.rep.overhead.HandlerCalls++
		t.w.flags = flagval{}
		t.w.fdirty = false
	}
	for {
		if t.tracedN >= t.cfg.MaxTracedInstrs {
			return ErrTraceTooLong
		}
		if t.cfg.Inject != nil {
			if err := t.cfg.Inject(SiteTrace); err != nil {
				return err
			}
		}
		if !t.deadline.IsZero() && t.tracedN&1023 == 0 && time.Now().After(t.deadline) {
			return ErrDeadline
		}
		t.tracedN++
		var ins isa.Instr
		if err := t.decode(t.pc, &ins); err != nil {
			return err
		}
		base := t.rep.beginStep()
		done, err := t.step(&ins)
		if err != nil {
			return err
		}
		t.rep.endStep(b, &ins, base)
		if done {
			// Exactly-sized copies: no growth slack, nothing to zero.
			b.ins, b.meta = slices.Clone(t.ins), slices.Clone(t.meta)
			return nil
		}
	}
}

func (t *tracer) decode(pc uint64, ins *isa.Instr) error {
	bs, err := t.m.Mem.FetchSlice(pc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCode, err)
	}
	if *ins, err = isa.Decode(bs, pc); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCode, err)
	}
	return nil
}

// step processes one traced instruction. It returns done=true when the
// current block is finished.
func (t *tracer) step(ins *isa.Instr) (bool, error) {
	next := ins.Addr + uint64(ins.Len)
	t.pc = next

	switch ins.Op {
	case isa.NOP:
		return false, nil

	case isa.BRK:
		return false, t.emit(*ins)

	case isa.HALT:
		if err := t.emit(*ins); err != nil {
			return true, err
		}
		t.endBlock(termEnd, -1, -1, 0)
		return true, nil

	case isa.MOV, isa.ADD, isa.SUB, isa.IMUL, isa.IDIV, isa.IREM, isa.AND,
		isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.CMP, isa.TEST:
		return false, t.stepALU(ins, t.w.r[ins.Src.Reg], true)

	case isa.MOVI, isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.CMPI:
		return false, t.stepALU(ins, konst(uint64(ins.Src.Imm)), false)

	case isa.NEG, isa.NOT:
		return false, t.stepALU1(ins)

	case isa.LEA:
		return false, t.stepLEA(ins)

	case isa.LOAD, isa.LOADB:
		return false, t.stepLoad(ins)

	case isa.STORE, isa.STOREB:
		return false, t.stepStore(ins)

	case isa.PUSH:
		return false, t.stepPush(ins)

	case isa.POP:
		return false, t.stepPop(ins)

	case isa.PUSHF:
		if err := t.emit(*ins); err != nil {
			return false, err
		}
		if delta, ok := t.w.spDelta(); ok {
			nd := delta - 8
			t.setInt(isa.SP, ival{kind: vStackRel, val: uint64(nd), mat: true})
			t.w.writeStack(nd, 8, unknown())
		} else {
			t.w.clearStack()
		}
		return false, nil

	case isa.POPF:
		if err := t.emit(*ins); err != nil {
			return false, err
		}
		if delta, ok := t.w.spDelta(); ok {
			t.setInt(isa.SP, ival{kind: vStackRel, val: uint64(delta + 8), mat: true})
		}
		// The restored runtime flags correspond to the traced flags at
		// the matching PUSHF, which we do not track: conservative
		// unknown+dirty (a later runtime flag reader fails the rewrite).
		t.w.flags = flagval{}
		t.w.fdirty = true
		return false, nil

	case isa.SETCC:
		return false, t.stepSetcc(ins)

	case isa.JMP:
		return t.stepJump(ins.Target())

	case isa.JMPR:
		v := t.w.r[ins.Dst.Reg]
		if !v.isConst() {
			return true, fmt.Errorf("%w: jmpr %s at 0x%x", ErrIndirectJump, ins.Dst.Reg, ins.Addr)
		}
		return t.stepJump(v.val)

	case isa.JCC:
		return t.stepJcc(ins)

	case isa.CALL:
		return t.stepCall(ins.Target(), next)

	case isa.CALLR:
		v := t.w.r[ins.Dst.Reg]
		if v.isConst() {
			return t.stepCall(v.val, next)
		}
		if v.kind == vStackRel {
			return true, fmt.Errorf("%w: call through stack address", ErrUnsupported)
		}
		// Unknown indirect call: keep it; the register holds the runtime
		// target.
		return false, t.emitCallInstr(ins)

	case isa.RET:
		return t.stepRet(ins)

	case isa.FMOV, isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSQRT, isa.FCMP:
		return false, t.stepFPU(ins)

	case isa.FMOVI:
		t.w.f[ins.Dst.Reg] = fval{known: true, val: math.Float64frombits(uint64(ins.Src.Imm))}
		return false, nil

	case isa.FNEG:
		f := t.w.f[ins.Dst.Reg]
		if f.known {
			t.w.f[ins.Dst.Reg] = fval{known: true, val: -f.val}
			return false, nil
		}
		return false, t.emit(*ins)

	case isa.FLOAD:
		return false, t.stepFLoad(ins)

	case isa.FSTORE:
		return false, t.stepStore(ins)

	case isa.CVTIF:
		v := t.w.r[ins.Src.Reg]
		if v.isConst() {
			t.w.f[ins.Dst.Reg] = fval{known: true, val: float64(int64(v.val))}
			return false, nil
		}
		if err := t.matInt(ins.Src.Reg); err != nil {
			return false, err
		}
		t.w.f[ins.Dst.Reg] = fval{}
		return false, t.emit(*ins)

	case isa.CVTFI:
		f := t.w.f[ins.Src.Reg]
		if f.known {
			t.setInt(ins.Dst.Reg, konst(uint64(int64(f.val))))
			return false, nil
		}
		if err := t.matFloat(ins.Src.Reg); err != nil {
			return false, err
		}
		t.setInt(ins.Dst.Reg, unknown())
		return false, t.emit(*ins)

	case isa.FMOVFI:
		f := t.w.f[ins.Src.Reg]
		if f.known {
			t.setInt(ins.Dst.Reg, konst(math.Float64bits(f.val)))
			return false, nil
		}
		if err := t.matFloat(ins.Src.Reg); err != nil {
			return false, err
		}
		t.setInt(ins.Dst.Reg, unknown())
		return false, t.emit(*ins)

	case isa.FMOVIF:
		v := t.w.r[ins.Src.Reg]
		if v.isConst() {
			t.w.f[ins.Dst.Reg] = fval{known: true, val: math.Float64frombits(v.val)}
			return false, nil
		}
		if err := t.matInt(ins.Src.Reg); err != nil {
			return false, err
		}
		t.w.f[ins.Dst.Reg] = fval{}
		return false, t.emit(*ins)

	case isa.VLOAD, isa.VSTORE, isa.VADD, isa.VSUB, isa.VMUL, isa.VBCAST, isa.VHADD:
		return false, t.stepVector(ins)
	}
	return true, fmt.Errorf("%w: opcode %s", ErrUnsupported, ins.Op)
}

// setInt writes an integer register's tracked state. A stack-relative
// value landing in a general register means a frame address is now
// observable by arbitrary code: the frame is marked escaped (see
// world.escaped).
func (t *tracer) setInt(r isa.Reg, v ival) {
	if v.kind == vStackRel && r != isa.SP {
		t.w.escaped = true
		t.escapedEver = true
	}
	t.w.r[r] = v
}

// silentFlags records flag effects of a silently evaluated instruction.
func (t *tracer) silentFlags(op isa.Opcode, fl isa.Flags, known bool) {
	if !isa.SetsFlags(op) {
		return
	}
	t.w.flags = flagval{known: known, fl: fl}
	t.w.fdirty = true
}

// emittedFlags records flag effects of an emitted instruction: the runtime
// flags become the live, true flags.
func (t *tracer) emittedFlags(op isa.Opcode) {
	if !isa.SetsFlags(op) {
		return
	}
	t.w.flags = flagval{}
	t.w.fdirty = false
}

// stepALU handles two-operand integer instructions; src is the tracked
// state of the source operand (a constant for immediate forms).
func (t *tracer) stepALU(ins *isa.Instr, src ival, srcIsReg bool) error {
	op := ins.Op
	dst := ins.Dst.Reg
	d := t.w.r[dst]
	spDst := dst == isa.SP

	// ResultsUnknown (Section V.C): operations still execute, but their
	// results are forced unknown, which forces the emit path below. SP
	// stays exempt so frame addressing keeps working, and so do direct
	// constant loads: the paper notes that "called functions still get
	// specialized ... due to constant values directly passed through as
	// parameter", which requires plain MOV/MOVI of constants to stay
	// known.
	forceUnknown := t.curOpts.ResultsUnknown && !spDst &&
		op != isa.MOVI && !(op == isa.MOV && src.isKnown())

	// Fully known operands: evaluate silently. Under BranchesUnknown,
	// flag-setting operations are emitted anyway (the conditional jumps
	// they feed will be kept and need live runtime flags), but the result
	// stays known AND materialized because the emitted instruction
	// computes it at runtime.
	readsDst := op != isa.MOV && op != isa.MOVI
	if !forceUnknown && src.isConst() && (!readsDst || d.isConst()) && !spDst {
		a := d.val
		r, fl, writes, err := isa.EvalALU(op, a, src.val)
		if err != nil {
			return fmt.Errorf("%w: %v at 0x%x", ErrUnsupported, err, ins.Addr)
		}
		if t.curOpts.BranchesUnknown && isa.SetsFlags(op) {
			if err := t.emitALU(ins, src, srcIsReg); err != nil {
				return err
			}
			if writes {
				t.setInt(dst, ival{kind: vConst, val: r, mat: true})
			}
			t.emittedFlags(op)
			return nil
		}
		if writes {
			t.setInt(dst, konst(r))
		}
		t.silentFlags(op, fl, true)
		t.rep.note("operands known: evaluated at rewrite time")
		return nil
	}

	// MOV of a rematerializable value is a pure copy and can be elided;
	// MOV of an unknown (runtime) value must be emitted, because the value
	// only exists in the source register.
	if op == isa.MOV && !spDst && !forceUnknown && src.isKnown() {
		nv := src
		nv.mat = false
		t.setInt(dst, nv)
		t.rep.note("copy of rematerializable value")
		return nil
	}
	if op == isa.MOVI && !spDst && !forceUnknown {
		t.setInt(dst, konst(src.val))
		t.rep.note("constant load tracked, not emitted")
		return nil
	}

	// Stack-relative arithmetic: ADD/SUB of a constant keeps the value
	// symbolic. Anything writing SP is emitted so the runtime SP follows.
	if (op == isa.ADD || op == isa.ADDI || op == isa.SUB || op == isa.SUBI) && !forceUnknown {
		var nv ival
		ok := false
		switch {
		case d.kind == vStackRel && src.isConst():
			if op == isa.ADD || op == isa.ADDI {
				nv, ok = stackRel(d.delta()+int64(src.val)), true
			} else {
				nv, ok = stackRel(d.delta()-int64(src.val)), true
			}
		case d.isConst() && src.kind == vStackRel && (op == isa.ADD):
			nv, ok = stackRel(src.delta()+int64(d.val)), true
		}
		if ok && !spDst {
			t.setInt(dst, nv)
			t.w.flags = flagval{}
			t.w.fdirty = true
			t.rep.note("stack-relative arithmetic tracked symbolically")
			return nil
		}
		if ok && spDst {
			// Emit the SP adjustment, folding the source into an
			// immediate when possible; runtime SP tracks symbolic SP.
			if err := t.emitALU(ins, src, srcIsReg); err != nil {
				return err
			}
			nv.mat = true
			t.setInt(dst, nv)
			t.emittedFlags(op)
			return nil
		}
	}

	// MOV into SP with a known stack-relative source.
	if (op == isa.MOV || op == isa.MOVI) && spDst {
		if srcIsReg && src.kind == vStackRel {
			if err := t.matInt(ins.Src.Reg); err != nil {
				return err
			}
			if err := t.emit(*ins); err != nil {
				return err
			}
			t.setInt(dst, ival{kind: vStackRel, val: src.val, mat: true})
			return nil
		}
		// SP becomes a constant or runtime value: emit and track.
		if err := t.emitALU(ins, src, srcIsReg); err != nil {
			return err
		}
		nv := unknown()
		if src.isConst() {
			nv = ival{kind: vConst, val: src.val, mat: true}
		}
		t.setInt(dst, nv)
		t.w.clearStack()
		return nil
	}

	// Known power-of-two divisors strength-reduce (Section III.A: index
	// computations depending on the runtime data distribution become
	// optimizable once the application has started).
	if (op == isa.IDIV || op == isa.IREM) && src.isConst() && !forceUnknown {
		if done, err := t.stepDivPow2(ins, src.val); done || err != nil {
			return err
		}
	}

	// Emit path.
	if err := t.emitALU(ins, src, srcIsReg); err != nil {
		return err
	}
	if op != isa.CMP && op != isa.CMPI && op != isa.TEST {
		nv := unknown()
		if spDst {
			// An emitted unexpected SP write: runtime value unknown.
			t.w.clearStack()
		}
		t.setInt(dst, nv)
	}
	t.emittedFlags(op)
	return nil
}

// emitALU emits a two-operand integer instruction, folding a constant
// source into the immediate form and materializing remaining known
// operands.
func (t *tracer) emitALU(ins *isa.Instr, src ival, srcIsReg bool) error {
	op := ins.Op
	readsDst := op != isa.MOV && op != isa.MOVI
	if readsDst {
		if err := t.matInt(ins.Dst.Reg); err != nil {
			return err
		}
	}
	if srcIsReg {
		if src.isConst() {
			if ri, ok := isa.ImmForm(op); ok {
				ni := isa.MakeRI(ri, ins.Dst.Reg, int64(src.val))
				t.rep.classify(classFolded, "constant source folded to immediate form")
				return t.emit(ni)
			}
		}
		if err := t.matInt(ins.Src.Reg); err != nil {
			return err
		}
	}
	return t.emit(*ins)
}

func (t *tracer) stepALU1(ins *isa.Instr) error {
	d := t.w.r[ins.Dst.Reg]
	if ins.Dst.Reg != isa.SP && d.isConst() && !t.curOpts.ResultsUnknown &&
		!(ins.Op == isa.NEG && t.curOpts.BranchesUnknown) {
		r, fl, setsFl := isa.EvalALU1(ins.Op, d.val)
		t.setInt(ins.Dst.Reg, konst(r))
		if setsFl {
			t.silentFlags(ins.Op, fl, true)
		}
		t.rep.note("operand known: evaluated at rewrite time")
		return nil
	}
	if err := t.matInt(ins.Dst.Reg); err != nil {
		return err
	}
	if err := t.emit(*ins); err != nil {
		return err
	}
	t.setInt(ins.Dst.Reg, unknown())
	if ins.Op == isa.NEG {
		t.emittedFlags(ins.Op)
	}
	return nil
}

func (t *tracer) stepLEA(ins *isa.Instr) error {
	st := t.memAddr(ins.Src.Mem)
	if ins.Dst.Reg != isa.SP && !t.curOpts.ResultsUnknown {
		switch st.kind {
		case vConst:
			t.setInt(ins.Dst.Reg, konst(st.val))
			t.rep.note("effective address fully known")
			return nil
		case vStackRel:
			t.setInt(ins.Dst.Reg, ival{kind: vStackRel, val: st.val})
			t.rep.note("stack-relative address tracked symbolically")
			return nil
		}
	}
	m, err := t.foldMem(ins.Src.Mem, st)
	if err != nil {
		return err
	}
	if err := t.emit(isa.MakeRM(isa.LEA, ins.Dst.Reg, m)); err != nil {
		return err
	}
	if ins.Dst.Reg == isa.SP {
		switch st.kind {
		case vStackRel:
			t.setInt(isa.SP, ival{kind: vStackRel, val: st.val, mat: true})
		case vConst:
			t.setInt(isa.SP, ival{kind: vConst, val: st.val, mat: true})
			t.w.clearStack()
		default:
			t.setInt(isa.SP, unknown())
			t.w.clearStack()
		}
		return nil
	}
	t.setInt(ins.Dst.Reg, unknown())
	return nil
}

func (t *tracer) stepSetcc(ins *isa.Instr) error {
	if t.w.flags.known && !t.curOpts.ResultsUnknown {
		v := uint64(0)
		if ins.CC.Holds(t.w.flags.fl) {
			v = 1
		}
		t.setInt(ins.Dst.Reg, konst(v))
		t.rep.note("condition flags known at rewrite time")
		return nil
	}
	if t.w.fdirty {
		return fmt.Errorf("%w: setcc reads dirty runtime flags at 0x%x", ErrUnsupported, ins.Addr)
	}
	if err := t.emit(*ins); err != nil {
		return err
	}
	t.setInt(ins.Dst.Reg, unknown())
	return nil
}

func (t *tracer) stepFPU(ins *isa.Instr) error {
	d, s := t.w.f[ins.Dst.Reg], t.w.f[ins.Src.Reg]
	op := ins.Op
	readsDst := op != isa.FMOV && op != isa.FSQRT
	if s.known && (!readsDst || d.known) && !t.curOpts.ResultsUnknown &&
		!(op == isa.FCMP && t.curOpts.BranchesUnknown) {
		r, fl, writes := isa.EvalFPU(op, d.val, s.val)
		if writes {
			t.w.f[ins.Dst.Reg] = fval{known: true, val: r}
		}
		if op == isa.FCMP {
			t.w.flags = flagval{known: true, fl: fl}
			t.w.fdirty = true
		}
		t.rep.note("fp operands known: evaluated at rewrite time")
		return nil
	}
	if op == isa.FMOV && !t.curOpts.ResultsUnknown && s.known {
		nv := s
		nv.mat = false
		t.w.f[ins.Dst.Reg] = nv
		t.rep.note("copy of rematerializable fp value")
		return nil
	}
	if readsDst {
		if err := t.matFloat(ins.Dst.Reg); err != nil {
			return err
		}
	}
	if err := t.matFloat(ins.Src.Reg); err != nil {
		return err
	}
	if err := t.emit(*ins); err != nil {
		return err
	}
	if op != isa.FCMP {
		t.w.f[ins.Dst.Reg] = fval{}
	} else {
		t.w.flags = flagval{}
		t.w.fdirty = false
	}
	return nil
}

func (t *tracer) stepVector(ins *isa.Instr) error {
	// Vector state is not tracked: operands fold, results are runtime
	// values. VBCAST needs its float source materialized.
	switch ins.Op {
	case isa.VLOAD:
		st := t.memAddr(ins.Src.Mem)
		m, err := t.foldMem(ins.Src.Mem, st)
		if err != nil {
			return err
		}
		if err := t.emitMemHandler(t.cfg.LoadHandler, m); err != nil {
			return err
		}
		return t.emit(isa.MakeRM(isa.VLOAD, ins.Dst.Reg, m))
	case isa.VSTORE:
		st := t.memAddr(ins.Dst.Mem)
		m, err := t.foldMem(ins.Dst.Mem, st)
		if err != nil {
			return err
		}
		t.noteStore(st, 8*isa.VecLanes, unknown())
		if err := t.emitMemHandler(t.cfg.StoreHandler, m); err != nil {
			return err
		}
		return t.emit(isa.MakeMR(isa.VSTORE, m, ins.Src.Reg))
	case isa.VBCAST:
		if err := t.matFloat(ins.Src.Reg); err != nil {
			return err
		}
		return t.emit(*ins)
	case isa.VHADD:
		if err := t.emit(*ins); err != nil {
			return err
		}
		t.w.f[ins.Dst.Reg] = fval{}
		return nil
	default:
		return t.emit(*ins)
	}
}

func (t *tracer) stepPush(ins *isa.Instr) error {
	if err := t.matInt(ins.Dst.Reg); err != nil {
		return err
	}
	if err := t.emit(*ins); err != nil {
		return err
	}
	if delta, ok := t.w.spDelta(); ok {
		nd := delta - 8
		t.setInt(isa.SP, ival{kind: vStackRel, val: uint64(nd), mat: true})
		v := t.w.r[ins.Dst.Reg]
		v.mat = false
		t.w.writeStack(nd, 8, v)
	} else {
		t.w.clearStack()
	}
	return nil
}

func (t *tracer) stepPop(ins *isa.Instr) error {
	if err := t.emit(*ins); err != nil {
		return err
	}
	if delta, ok := t.w.spDelta(); ok {
		nv := unknown()
		if slot, found := t.w.readStack(delta, 8); found && slot.isKnown() {
			// The runtime stack always holds the true value because
			// stores are always emitted; the popped register is therefore
			// known AND materialized.
			nv = slot
			nv.mat = true
		}
		if ins.Dst.Reg == isa.SP {
			if nv.kind != vStackRel {
				t.w.clearStack()
			}
			nv.mat = true
			t.setInt(isa.SP, nv)
			return nil
		}
		t.setInt(ins.Dst.Reg, nv)
		t.setInt(isa.SP, ival{kind: vStackRel, val: uint64(delta + 8), mat: true})
	} else {
		t.setInt(ins.Dst.Reg, unknown())
	}
	return nil
}

// stepJump processes a direct jump or a trace-over to a known target.
func (t *tracer) stepJump(target uint64) (bool, error) {
	// If an identical translation exists, link to it.
	if id, _ := t.findBlock(target, t.w); id >= 0 {
		t.rep.classify(classKept, "jump to existing translation")
		t.endBlock(termFall, id, -1, 0)
		return true, nil
	}
	// Bound unrolling of unconditional back edges within one block chain.
	// This is a backstop against no-progress loops; genuine full unrolls
	// are bounded by the instruction and code-size budgets.
	const traceOverBudget = 4096
	oc := t.overCount[target]
	if oc.block != t.cur.id {
		oc = overTally{block: t.cur.id}
	}
	oc.n++
	t.overCount[target] = oc
	if oc.n > traceOverBudget {
		id, err := t.edgeTo(target)
		if err != nil {
			return true, err
		}
		t.rep.classify(classKept, "trace-over budget exhausted: edge kept")
		t.endBlock(termFall, id, -1, 0)
		return true, nil
	}
	// Trace over the jump (paper: "For unconditional jumps, we can proceed
	// as with calls without changes to the shadow stack").
	if target < t.pc {
		t.rep.traceOvers++ // back edge unrolled into the trace
		t.rep.note("back edge traced through (loop unrolled)")
	} else {
		t.rep.note("unconditional jump traced through")
	}
	t.pc = target
	return false, nil
}

func (t *tracer) stepJcc(ins *isa.Instr) (bool, error) {
	if t.w.flags.known && !t.curOpts.BranchesUnknown {
		if ins.CC.Holds(t.w.flags.fl) {
			t.rep.note("branch direction known: taken")
			return t.stepJump(ins.Target())
		}
		t.rep.note("branch direction known: fall through")
		return false, nil
	}
	if t.w.fdirty {
		return true, fmt.Errorf("%w: conditional jump on dirty runtime flags at 0x%x", ErrUnsupported, ins.Addr)
	}
	// Diverging path: save the known-world state and enqueue both
	// successors (paper, Section III.F).
	takenID, err := t.edgeTo(ins.Target())
	if err != nil {
		return true, err
	}
	fallID, err := t.edgeTo(t.pc)
	if err != nil {
		return true, err
	}
	t.rep.classify(classKept, "runtime branch kept: both paths enqueued")
	t.endBlock(termJcc, fallID, takenID, ins.CC)
	return true, nil
}

func (t *tracer) stepRet(ins *isa.Instr) (bool, error) {
	if t.ctx == 0 {
		delta, ok := t.w.spDelta()
		if !ok || delta != 0 {
			return true, fmt.Errorf("%w: return with unbalanced stack (delta=%d, tracked=%v)", ErrUnsupported, delta, ok)
		}
		// The return registers are live out: materialize known results.
		if err := t.matInt(isa.IntRet); err != nil {
			return true, err
		}
		if err := t.matFloat(0); err != nil {
			return true, err
		}
		if t.cfg.ExitHandler != 0 {
			if err := t.emit(isa.MakeRel(isa.CALL, t.cfg.ExitHandler)); err != nil {
				return true, err
			}
			t.rep.overhead.HandlerCalls++
		}
		if err := t.emit(*ins); err != nil {
			return true, err
		}
		t.endBlock(termEnd, -1, -1, 0)
		return true, nil
	}
	// Inlined return: continue at the saved return address (paper,
	// Section III.E).
	fr := &t.ctxs[t.ctx]
	delta, ok := t.w.spDelta()
	if !ok || delta != fr.delta {
		return true, fmt.Errorf("%w: inlined callee returns with unbalanced stack", ErrUnsupported)
	}
	t.rep.classify(classInlined, "return from inlined call")
	t.ctx = fr.parent
	t.curOpts = fr.opts
	t.curFn = fr.fn
	t.pc = fr.retAddr
	return false, nil
}

func (t *tracer) stepCall(target, next uint64) (bool, error) {
	if t.cfg.dynMarkers[target] {
		return false, t.stepMakeDynamic()
	}
	opts := t.cfg.optsFor(target)
	if opts.NoInline {
		call := isa.MakeRel(isa.CALL, target)
		return false, t.emitCallInstr(&call)
	}
	if depth := t.ctxs[t.ctx].depth; depth >= t.cfg.MaxInlineDepth {
		return true, fmt.Errorf("%w: inlining %d deep at call to 0x%x", ErrInlineDepth, depth, target)
	}
	delta, ok := t.w.spDelta()
	if !ok {
		return true, fmt.Errorf("%w: call with untracked stack pointer", ErrUnsupported)
	}
	// Inline: no return-address push is emitted; the shadow stack
	// remembers where to continue.
	t.rep.classify(classInlined, "call inlined into trace")
	t.rep.inlinedCalls++
	t.ctx = t.pushCtx(frame{retAddr: next, fn: t.curFn, delta: delta, opts: t.curOpts})
	t.curFn = target
	t.curOpts = opts
	t.pc = target
	return false, nil
}

// stepMakeDynamic replaces a call to a registered makeDynamic marker with
// "result = argument, result unknown" (paper, Section V.C).
func (t *tracer) stepMakeDynamic() error {
	t.rep.classify(classFolded, "makeDynamic marker: result forced unknown")
	if err := t.matInt(isa.IntArgRegs[0]); err != nil {
		return err
	}
	if err := t.emit(isa.MakeRR(isa.MOV, isa.IntRet, isa.IntArgRegs[0])); err != nil {
		return err
	}
	t.setInt(isa.IntRet, unknown())
	// The marker behaves like a call: caller-saved registers are dead.
	t.clobberCallerSaved()
	return nil
}

// stepDivPow2 strength-reduces a signed division/remainder by a known
// positive power-of-two divisor. It needs a scratch register; any register
// whose tracked value is rematerializable can be clobbered (its runtime
// content is recreated on the next materialization). Returns done=false
// when no reduction applies, leaving the generic emit path to handle the
// instruction.
func (t *tracer) stepDivPow2(ins *isa.Instr, d uint64) (bool, error) {
	dst := ins.Dst.Reg
	if d == 0 || d&(d-1) != 0 {
		return false, nil
	}
	if d == 1 {
		t.rep.note("division by 1 eliminated")
		// x/1 = x (even for unknown x); x%1 = 0. Original flags are based
		// on the result; runtime flags go stale.
		if ins.Op == isa.IREM {
			t.setInt(dst, konst(0))
			t.silentFlags(isa.IREM, isa.Flags{Z: true}, true)
		} else {
			dv := t.w.r[dst]
			fl := isa.Flags{}
			known := false
			if dv.isConst() {
				fl = isa.Flags{Z: dv.val == 0, S: int64(dv.val) < 0}
				known = true
			}
			t.w.flags = flagval{known: known, fl: fl}
			t.w.fdirty = true
		}
		return true, nil
	}
	var k int64
	for v := d; v > 1; v >>= 1 {
		k++
	}
	// Scratch: a rematerializable register other than the dividend. The
	// divisor register itself qualifies — its value is folded into
	// immediates and recreated on the next materialization.
	scratch := isa.RegNone
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == dst || r == isa.SP {
			continue
		}
		if t.w.r[r].isKnown() {
			scratch = r
			break
		}
	}
	if scratch == isa.RegNone {
		return false, nil
	}
	if err := t.matInt(dst); err != nil {
		return true, err
	}
	t.rep.classify(classFolded, "power-of-two division strength-reduced to shifts")
	mask := int64(d) - 1
	var seq []isa.Instr
	if ins.Op == isa.IDIV {
		// q = (x + ((x >> 63) & (d-1))) >> k, rounding toward zero.
		seq = []isa.Instr{
			isa.MakeRR(isa.MOV, scratch, dst),
			isa.MakeRI(isa.SARI, scratch, 63),
			isa.MakeRI(isa.ANDI, scratch, mask),
			isa.MakeRR(isa.ADD, dst, scratch),
			isa.MakeRI(isa.SARI, dst, k),
		}
	} else {
		// r = x - ((x + bias) &^ (d-1)), where bias = (x>>63) & (d-1).
		seq = []isa.Instr{
			isa.MakeRR(isa.MOV, scratch, dst),
			isa.MakeRI(isa.SARI, dst, 63),
			isa.MakeRI(isa.ANDI, dst, mask),
			isa.MakeRR(isa.ADD, dst, scratch),
			isa.MakeRI(isa.ANDI, dst, ^mask),
			isa.MakeRR(isa.SUB, scratch, dst),
			isa.MakeRR(isa.MOV, dst, scratch),
		}
	}
	for _, s := range seq {
		if err := t.emit(s); err != nil {
			return true, err
		}
	}
	// The scratch register's runtime content is garbage now; its tracked
	// value survives unmaterialized.
	sv := t.w.r[scratch]
	sv.mat = false
	t.w.r[scratch] = sv
	t.setInt(dst, unknown())
	// Runtime flags do not match the original IDIV/IREM result flags.
	t.w.flags = flagval{}
	t.w.fdirty = true
	return true, nil
}

// emitCallInstr emits a kept (non-inlined) call: known ABI argument
// registers are materialized ("compensation code to make registers
// 'unknown' which are parameters according to the ABI"), caller-saved
// registers are dead afterwards, callee-saved registers keep their state.
func (t *tracer) emitCallInstr(ins *isa.Instr) error {
	for _, r := range isa.IntArgRegs {
		if err := t.matInt(r); err != nil {
			return err
		}
	}
	for _, r := range isa.FloatArgRegs {
		if err := t.matFloat(r); err != nil {
			return err
		}
	}
	if err := t.emit(*ins); err != nil {
		return err
	}
	t.clobberCallerSaved()
	return nil
}

func (t *tracer) clobberCallerSaved() {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if isa.CallerSavedInt(r) {
			t.setInt(r, unknown())
		}
		if isa.CallerSavedFloat(r) {
			t.w.f[r] = fval{}
		}
	}
	t.w.flags = flagval{}
	t.w.fdirty = false
	// The callee clobbers dead space below the current SP and — if frame
	// addresses escaped — possibly the whole frame; the caller-visible
	// region may be written through any pointer the callee holds.
	if t.w.escaped {
		t.w.clearStack()
	} else {
		if delta, ok := t.w.spDelta(); ok {
			t.w.clearStackBelow(delta)
		} else {
			t.w.clearStack()
		}
		t.w.clearStackCallerVisible()
	}
	t.w.clearMem()
}

// endBlock finalizes the current block's terminator.
func (t *tracer) endBlock(kind termKind, succ, jccTarget int, cc isa.Cond) {
	t.cur.term = kind
	t.cur.succ = succ
	t.cur.jcc = jccTarget
	t.cur.cc = cc
}

// edgeTo resolves a control-flow edge into state (addr, current world,
// current inline context): an existing identical translation, a new pending
// block, or — once the per-address variant threshold is reached — a
// migration to an existing or generalized known-world state with
// compensation code (paper, Section III.F).
func (t *tracer) edgeTo(addr uint64) (int, error) {
	id, s := t.findBlock(addr, t.w)
	if id >= 0 {
		return id, nil
	}
	if s.n < t.cfg.maxVariants(t.curOpts) {
		return t.newBlock(addr, t.snapshot(), t.curFn)
	}
	// Threshold reached: find the compatible existing translation needing
	// the least compensation.
	t.rep.migrations++
	best, bestCost, bestComp := -1, int(^uint(0)>>1), regMask(0)
	others := make([]*world, 0, s.n)
	for id := s.head; id >= 0; id = t.blocks[id].next {
		tw := t.blocks[id].world
		others = append(others, tw)
		if comp, ok := compat(t.w, tw); ok && bits.OnesCount64(uint64(comp)) < bestCost {
			best, bestCost, bestComp = id, bits.OnesCount64(uint64(comp)), comp
		}
	}
	if best >= 0 {
		return t.trampolineTo(best, bestComp)
	}
	// No migration possible: generalize towards unknown (terminates at
	// the all-unknown state).
	gw := generalize(t.w, others)
	if id, _ := t.findBlock(addr, gw); id >= 0 {
		comp, ok := compat(t.w, t.blocks[id].world)
		if !ok {
			return 0, fmt.Errorf("%w: generalized world incompatible", ErrUnsupported)
		}
		return t.trampolineTo(id, comp)
	}
	id, err := t.newBlock(addr, gw, t.curFn)
	if err != nil {
		return 0, err
	}
	comp, ok := compat(t.w, gw)
	if !ok {
		return 0, fmt.Errorf("%w: world does not reach its own generalization", ErrUnsupported)
	}
	return t.trampolineTo(id, comp)
}

// trampolineTo links to target, inserting a compensation block that
// materializes the registers in comp when there are any.
func (t *tracer) trampolineTo(target int, comp regMask) (int, error) {
	if comp == 0 {
		return target, nil
	}
	if len(t.blocks) >= t.cfg.MaxBlocks {
		return 0, ErrTooManyBlocks
	}
	tb := &eblock{id: len(t.blocks), term: termFall, succ: target, jcc: -1, next: -1}
	t.blocks = append(t.blocks, tb)
	add := func(ins isa.Instr) error {
		n, err := isa.EncodedLen(ins)
		if err != nil {
			return err
		}
		tb.ins = append(tb.ins, ins)
		tb.meta = append(tb.meta, insMeta{})
		tb.bytes += n
		t.codeBytes += n
		t.rep.emitN++
		t.rep.overhead.TrampolineInstrs++
		return nil
	}
	delta, _ := t.w.spDelta()
	for regs := comp.ints(); regs != 0; {
		r := regs.nextReg()
		var ins isa.Instr
		switch v := t.w.r[r]; v.kind {
		case vConst:
			ins = isa.MakeRI(isa.MOVI, r, int64(v.val))
		case vStackRel:
			off := v.delta() - delta
			if off < math.MinInt32 || off > math.MaxInt32 {
				return 0, fmt.Errorf("%w: compensation offset out of range", ErrUnsupported)
			}
			ins = isa.MakeRM(isa.LEA, r, isa.BaseDisp(isa.SP, int32(off)))
		default:
			continue
		}
		if err := add(ins); err != nil {
			return 0, err
		}
	}
	for regs := comp.floats(); regs != 0; {
		r := regs.nextReg()
		if f := t.w.f[r]; f.known {
			if err := add(isa.Instr{Op: isa.FMOVI, Dst: isa.FRegOp(r), Src: isa.FImmOp(f.val)}); err != nil {
				return 0, err
			}
		}
	}
	if t.codeBytes > t.cfg.MaxCodeBytes {
		return 0, ErrCodeBufferFull
	}
	return tb.id, nil
}
