package brew

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// addrState is the tracked state of an effective address.
type addrState struct {
	kind vKind
	val  uint64 // constant address, or delta from entry SP
}

func (a addrState) delta() int64 { return int64(a.val) }

// insMeta annotates one emitted instruction with its statically known
// frame access (delta relative to the entry SP), enabling the dead
// frame-store elimination pass, and carries the optimizer's marks: dead
// (removed, until sweepDead drops it) and mark (scratch of one pass, which
// clears it before returning).
type insMeta struct {
	frameStore bool
	frameLoad  bool
	dead       bool
	mark       bool
	size       int32
	delta      int64
}

// span returns the frame bytes the annotated access touches, as deltas.
func (m insMeta) span() frameSpan { return frameSpan{m.delta, m.delta + int64(m.size)} }

// emit appends one captured instruction to the current block, accounting
// its encoded size against the code budget and annotating frame accesses.
func (t *tracer) emit(ins isa.Instr) error {
	ins.Addr = 0
	ins.Wide = false
	n, err := isa.EncodedLen(ins)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	t.ins = append(t.ins, ins)
	t.meta = append(t.meta, t.frameMeta(&ins))
	t.cur.bytes += n
	t.codeBytes += n
	t.rep.emitN++
	if t.codeBytes > t.cfg.MaxCodeBytes {
		return ErrCodeBufferFull
	}
	return nil
}

// frameMeta classifies an emitted instruction's stack-frame access. When
// an access cannot be attributed precisely, the whole frame is marked
// opaque, disabling dead-store elimination.
func (t *tracer) frameMeta(ins *isa.Instr) insMeta {
	var m isa.MemRef
	var isStore, isLoad bool
	var size int32 = 8
	switch ins.Op {
	case isa.STORE, isa.FSTORE:
		m, isStore = ins.Dst.Mem, true
	case isa.STOREB:
		m, isStore, size = ins.Dst.Mem, true, 1
	case isa.VSTORE:
		m, isStore, size = ins.Dst.Mem, true, 8*isa.VecLanes
	case isa.LOAD, isa.FLOAD:
		m, isLoad = ins.Src.Mem, true
	case isa.LOADB:
		m, isLoad, size = ins.Src.Mem, true, 1
	case isa.VLOAD:
		m, isLoad, size = ins.Src.Mem, true, 8*isa.VecLanes
	case isa.PUSH, isa.PUSHF:
		delta, ok := t.w.spDelta()
		if !ok {
			t.frameOpaque = true
			return insMeta{}
		}
		return insMeta{frameStore: true, delta: delta - 8, size: 8}
	case isa.POP, isa.POPF:
		delta, ok := t.w.spDelta()
		if !ok {
			t.frameOpaque = true
			return insMeta{}
		}
		return insMeta{frameLoad: true, delta: delta, size: 8}
	default:
		return insMeta{}
	}
	usesSP := (m.HasBase() && m.Base == isa.SP) || (m.HasIndex() && m.Index == isa.SP)
	if !usesSP {
		return insMeta{}
	}
	delta, ok := t.w.spDelta()
	if !ok || m.HasIndex() || m.Base != isa.SP {
		t.frameOpaque = true
		return insMeta{}
	}
	return insMeta{frameStore: isStore, frameLoad: isLoad, delta: delta + int64(m.Disp), size: size}
}

// matInt makes the generated code hold register r's known value at runtime
// (the paper's compensation: "generate code to load the corresponding
// locations with their known values"). No-op for unknown or already
// materialized registers.
func (t *tracer) matInt(r isa.Reg) error {
	v := t.w.r[r]
	if !v.isKnown() || v.mat {
		return nil
	}
	switch v.kind {
	case vConst:
		if err := t.emit(isa.MakeRI(isa.MOVI, r, int64(v.val))); err != nil {
			return err
		}
		t.rep.overhead.Materializations++
	case vStackRel:
		delta, ok := t.w.spDelta()
		if !ok {
			return fmt.Errorf("%w: materializing stack-relative value with untracked SP", ErrUnsupported)
		}
		off := v.delta() - delta
		if off < math.MinInt32 || off > math.MaxInt32 {
			return fmt.Errorf("%w: stack offset %d out of range", ErrUnsupported, off)
		}
		if err := t.emit(isa.MakeRM(isa.LEA, r, isa.BaseDisp(isa.SP, int32(off)))); err != nil {
			return err
		}
		t.rep.overhead.Materializations++
	}
	v.mat = true
	t.w.r[r] = v
	return nil
}

// matFloat is matInt for the floating-point file.
func (t *tracer) matFloat(r isa.Reg) error {
	f := t.w.f[r]
	if !f.known || f.mat {
		return nil
	}
	ins := isa.Instr{Op: isa.FMOVI, Dst: isa.FRegOp(r), Src: isa.FImmOp(f.val)}
	if err := t.emit(ins); err != nil {
		return err
	}
	t.rep.overhead.Materializations++
	f.mat = true
	t.w.f[r] = f
	return nil
}

// inKnown reports whether [addr, addr+size) lies inside declared-known
// memory.
func (t *tracer) inKnown(addr uint64, size int) bool {
	end := addr + uint64(size)
	for _, r := range t.ranges {
		if addr >= r.Start && end <= r.End {
			return true
		}
	}
	return false
}

// readKnownMem returns the little-endian value of size bytes at a constant
// address if every byte is known: either a traced overlay write or
// declared-known memory read from the machine.
func (t *tracer) readKnownMem(addr uint64, size int) (uint64, bool) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		a := addr + uint64(i)
		if b, known, present := t.w.memByte(a); present {
			if !known {
				return 0, false
			}
			v = v<<8 | uint64(b)
			continue
		}
		if !t.inKnown(a, 1) {
			return 0, false
		}
		b, err := t.m.Mem.Read8(a)
		if err != nil {
			return 0, false
		}
		v = v<<8 | uint64(b)
	}
	return v, true
}

// memAddr computes the tracked state of a memory operand's effective
// address.
func (t *tracer) memAddr(m isa.MemRef) addrState {
	acc := addrState{kind: vConst, val: uint64(int64(m.Disp))}
	if m.HasBase() {
		acc = addCombine(acc, t.w.r[m.Base], 1)
	}
	if m.HasIndex() {
		acc = addCombine(acc, t.w.r[m.Index], uint64(m.Scale))
	}
	return acc
}

func addCombine(a addrState, v ival, scale uint64) addrState {
	if a.kind == vUnknown {
		return a
	}
	switch v.kind {
	case vConst:
		a.val += v.val * scale
		return a
	case vStackRel:
		if scale == 1 && a.kind == vConst {
			return addrState{kind: vStackRel, val: uint64(v.delta() + int64(a.val))}
		}
		return addrState{kind: vUnknown}
	default:
		return addrState{kind: vUnknown}
	}
}

// foldMem rewrites a memory operand for emission, folding known registers
// into the displacement. Remaining registers hold runtime values (unknown)
// or are materialized.
func (t *tracer) foldMem(m isa.MemRef, st addrState) (isa.MemRef, error) {
	spDelta, spOK := t.w.spDelta()
	switch st.kind {
	case vConst:
		if st.val <= math.MaxInt32 {
			return isa.Abs(int32(st.val)), nil
		}
		return isa.MemRef{}, fmt.Errorf("%w: absolute address 0x%x out of range", ErrUnsupported, st.val)
	case vStackRel:
		if spOK {
			off := st.delta() - spDelta
			if off >= math.MinInt32 && off <= math.MaxInt32 {
				return isa.BaseDisp(isa.SP, int32(off)), nil
			}
		}
	}
	// Partial fold.
	nm := m
	nm.Wide = false
	disp := int64(m.Disp)
	if m.HasBase() {
		switch bv := t.w.r[m.Base]; bv.kind {
		case vConst:
			disp += int64(bv.val)
			nm.Base = isa.RegNone
		case vStackRel:
			if spOK {
				disp += bv.delta() - spDelta
				nm.Base = isa.SP
			} else {
				if err := t.matInt(m.Base); err != nil {
					return isa.MemRef{}, err
				}
			}
		}
	}
	if m.HasIndex() {
		switch iv := t.w.r[m.Index]; iv.kind {
		case vConst:
			disp += int64(iv.val) * int64(m.Scale)
			nm.Index = isa.RegNone
			nm.Scale = 1
		case vStackRel:
			if err := t.matInt(m.Index); err != nil {
				return isa.MemRef{}, err
			}
		}
	}
	if disp < math.MinInt32 || disp > math.MaxInt32 {
		return isa.MemRef{}, fmt.Errorf("%w: folded displacement %d out of range", ErrUnsupported, disp)
	}
	nm.Disp = int32(disp)
	return nm, nil
}

// emitMemHandler injects a callback before an emitted memory access
// (Section III.D): the effective address is delivered in R9, the
// condition flags are preserved via PUSHF/POPF, and R9's previous runtime
// value is saved and restored. The handler must preserve every register
// (R9 included) and may clobber only the flags, which the bracket
// restores anyway.
func (t *tracer) emitMemHandler(handler uint64, m isa.MemRef) error {
	if handler == 0 {
		return nil
	}
	savedR9 := t.w.r[isa.R9]
	savedFlags := t.w.flags
	savedDirty := t.w.fdirty

	delta, tracked := t.w.spDelta()
	adjust := func(nd int64) {
		if tracked {
			t.setInt(isa.SP, ival{kind: vStackRel, val: uint64(nd), mat: true})
		}
	}
	if err := t.emit(isa.MakeR(isa.PUSH, isa.R9)); err != nil {
		return err
	}
	adjust(delta - 8)
	if err := t.emit(isa.MakeNone(isa.PUSHF)); err != nil {
		return err
	}
	adjust(delta - 16)
	// The operand was folded against the pre-bracket SP; two pushes later
	// an SP-relative address needs +16.
	lm := m
	if lm.HasBase() && lm.Base == isa.SP {
		nd := int64(lm.Disp) + 16
		if nd > math.MaxInt32 {
			return fmt.Errorf("%w: handler operand displacement overflow", ErrUnsupported)
		}
		lm.Disp = int32(nd)
	}
	if err := t.emit(isa.MakeRM(isa.LEA, isa.R9, lm)); err != nil {
		return err
	}
	if err := t.emit(isa.MakeRel(isa.CALL, handler)); err != nil {
		return err
	}
	if err := t.emit(isa.MakeNone(isa.POPF)); err != nil {
		return err
	}
	adjust(delta - 8)
	if err := t.emit(isa.MakeR(isa.POP, isa.R9)); err != nil {
		return err
	}
	adjust(delta)
	t.rep.overhead.HandlerInstrs += 6 // PUSH/PUSHF/LEA/CALL/POPF/POP bracket
	t.rep.overhead.HandlerCalls++

	// Net effect on the world: the handler preserves registers and the
	// bracket restores R9 and the flags; only transient slots below the
	// current SP (the handler's frame) are clobbered.
	t.w.r[isa.R9] = savedR9
	t.w.flags = savedFlags
	t.w.fdirty = savedDirty
	if tracked {
		t.w.clearStackBelow(delta)
	} else {
		t.w.clearStack()
	}
	return nil
}

// stepLoad handles LOAD and LOADB.
func (t *tracer) stepLoad(ins *isa.Instr) error {
	size := 8
	if ins.Op == isa.LOADB {
		size = 1
	}
	st := t.memAddr(ins.Src.Mem)
	switch st.kind {
	case vConst:
		// Data loads are operations and stay unknown under
		// ResultsUnknown.
		if !t.curOpts.ResultsUnknown {
			if v, ok := t.readKnownMem(st.val, size); ok {
				t.setInt(ins.Dst.Reg, konst(v))
				return nil
			}
		}
	case vStackRel:
		// A reload from a tracked frame slot is a register copy in
		// disguise (spill code), not an operation: it stays foldable even
		// under ResultsUnknown, mirroring the MOV exemption that lets
		// constants pass through as parameters (Section V.C).
		if slot, ok := t.w.readStack(st.delta(), uint8(size)); ok && slot.isKnown() {
			nv := slot
			nv.mat = false
			t.setInt(ins.Dst.Reg, nv)
			return nil
		}
	}
	m, err := t.foldMem(ins.Src.Mem, st)
	if err != nil {
		return err
	}
	if err := t.emitMemHandler(t.cfg.LoadHandler, m); err != nil {
		return err
	}
	if err := t.emit(isa.MakeRM(ins.Op, ins.Dst.Reg, m)); err != nil {
		return err
	}
	t.setInt(ins.Dst.Reg, unknown())
	return nil
}

// stepFLoad handles FLOAD.
func (t *tracer) stepFLoad(ins *isa.Instr) error {
	st := t.memAddr(ins.Src.Mem)
	switch st.kind {
	case vConst:
		if !t.curOpts.ResultsUnknown {
			if v, ok := t.readKnownMem(st.val, 8); ok {
				t.w.f[ins.Dst.Reg] = fval{known: true, val: math.Float64frombits(v)}
				return nil
			}
		}
	case vStackRel:
		// Spill reloads stay foldable; see stepLoad.
		if slot, ok := t.w.readStack(st.delta(), 8); ok && slot.isConst() {
			t.w.f[ins.Dst.Reg] = fval{known: true, val: math.Float64frombits(slot.val)}
			return nil
		}
	}
	m, err := t.foldMem(ins.Src.Mem, st)
	if err != nil {
		return err
	}
	if err := t.emitMemHandler(t.cfg.LoadHandler, m); err != nil {
		return err
	}
	if err := t.emit(isa.MakeRM(isa.FLOAD, ins.Dst.Reg, m)); err != nil {
		return err
	}
	t.w.f[ins.Dst.Reg] = fval{}
	return nil
}

// stepStore handles STORE, STOREB and FSTORE. Stores are always emitted so
// the runtime memory and stack hold the true values at all times; tracking
// only licenses folding of later loads.
func (t *tracer) stepStore(ins *isa.Instr) error {
	size := 8
	if ins.Op == isa.STOREB {
		size = 1
	}
	st := t.memAddr(ins.Dst.Mem)
	var sv ival
	if ins.Op == isa.FSTORE {
		if err := t.matFloat(ins.Src.Reg); err != nil {
			return err
		}
		if f := t.w.f[ins.Src.Reg]; f.known {
			sv = konst(math.Float64bits(f.val))
		} else {
			sv = unknown()
		}
	} else {
		if err := t.matInt(ins.Src.Reg); err != nil {
			return err
		}
		sv = t.w.r[ins.Src.Reg]
	}
	t.noteStore(st, size, sv)
	m, err := t.foldMem(ins.Dst.Mem, st)
	if err != nil {
		return err
	}
	if err := t.emitMemHandler(t.cfg.StoreHandler, m); err != nil {
		return err
	}
	return t.emit(isa.MakeMR(ins.Op, m, ins.Src.Reg))
}

// noteStore records the tracked effect of a store.
func (t *tracer) noteStore(st addrState, size int, v ival) {
	switch st.kind {
	case vConst:
		// The overlay only covers declared-known memory; everything else
		// is plain runtime memory.
		if t.inKnown(st.val, size) {
			if v.isConst() {
				t.w.overlayWrite(st.val, v.val, size)
			} else {
				t.w.poisonMem(st.val, size)
			}
		}
	case vStackRel:
		nv := v
		nv.mat = false
		if size == 1 {
			if nv.isConst() {
				nv = konst(nv.val & 0xFF)
			} else {
				nv = unknown()
			}
		}
		t.w.writeStack(st.delta(), uint8(size), nv)
	default:
		// A store through an unknown address may alias the caller-visible
		// stack region, and — only once a frame address has escaped into
		// a register — the private frame too (e.g. a local array indexed
		// by a runtime value). Declared-known memory is exempt by the
		// user's contract.
		if t.w.escaped {
			t.w.clearStack()
		} else {
			t.w.clearStackCallerVisible()
		}
	}
}
