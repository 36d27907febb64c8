package brew

import (
	"cmp"
	"slices"

	"repro/internal/isa"
)

// optimize runs local passes over the captured blocks. The paper's
// prototype ships without optimization passes ("there currently are no
// optimization passes implemented") but names the needed ones explicitly:
// removing redundant loads (Section V.B), avoiding register spills to the
// stack "when free register space becomes available due to specialization"
// (Section IV), and register renaming (Section VIII). The passes here
// implement exactly that profile:
//
//   - store-to-load forwarding and dead store elimination on the private
//     frame (spill traffic left behind by folding)
//   - copy-dance coalescing (two-address copy churn)
//   - liveness-based dead code elimination (ABI-dead registers at return)
//   - duplicate load elimination
//   - dead callee-saved save/restore removal with frame shrinking
//
// frameSafe is true when every emitted stack access was precisely
// attributed and no frame address escaped, which licenses treating the
// private frame (deltas below the entry SP) as invisible memory.
//
// rep, when non-nil, records each pass run and how many instructions it
// removed (negative for passes that add code, e.g. vectorize prologues).
func optimize(blocks []*eblock, frameSafe, vectorizeOpt bool, rep *reportBuilder) {
	o := &optimizer{blocks: blocks, rep: rep}
	for _, b := range blocks {
		o.live += len(b.ins)
	}
	// The core local passes run to a fixpoint: stop after the first full
	// sweep that removes nothing, so already-clean code pays for exactly
	// one verification sweep instead of a fixed pass budget. maxOptSweeps
	// bounds pathological ping-ponging; in practice the loop converges
	// within a few sweeps. Within a sweep the passes only mark what they
	// remove (insMeta.dead) and step over each other's marks; the blocks
	// are compacted once, when the sweep ends.
	const maxOptSweeps = 8
	for sweep := 0; sweep < maxOptSweeps; sweep++ {
		start := o.live
		if frameSafe {
			o.runEach("forwardFrameStores", o.forwardFrameStores)
			o.run("deadFrameStores", o.deadFrameStores)
		}
		o.runEach("copyDance", copyDance)
		o.runEach("addrFold", addrFold)
		o.run("deadCode", o.deadCodeGlobal)
		o.runEach("redundantLoads", redundantLoads)
		removed := start - o.live
		if rep != nil {
			rep.sweep(removed)
		}
		if removed == 0 {
			break
		}
		sweepDead(blocks)
	}
	// The remaining passes match instruction positions, so each of them
	// leaves the blocks compacted.
	if frameSafe {
		o.run("renameCalleeSaved", o.renameCalleeSaved)
		o.run("removeDeadSaves", o.removeDeadSaves)
		o.run("deadCode", o.deadCodeGlobal)
		sweepDead(blocks)
		o.run("removeDeadSaves", o.removeDeadSaves)
	}
	if vectorizeOpt {
		o.run("vectorize", o.vectorize)
		o.run("deadCode", o.deadCodeGlobal)
		sweepDead(blocks)
	}
	// Passes rewrite operands in place and drop instructions without
	// keeping the byte count: settle it once, for layout.
	for _, b := range blocks {
		b.bytes = 0
		for i := range b.ins {
			if n, err := isa.EncodedLen(b.ins[i]); err == nil {
				b.bytes += n
			}
		}
	}
}

// optimizer is the state of one optimize call: the blocks, the running
// count of live (unmarked) instructions the report's pass rows are built
// from, and scratch the passes reuse from block to block.
type optimizer struct {
	blocks []*eblock
	rep    *reportBuilder
	live   int

	liveIn, liveOut []liveSet
	stale           []bool
	fwd             []frameFwd
	loads           []frameSpan
}

// run executes one pass, which returns how many instructions it removed
// (negative when it added some), and records it.
func (o *optimizer) run(name string, pass func() int) {
	removed := pass()
	if o.rep != nil {
		o.rep.pass(name, o.live, removed)
	}
	o.live -= removed
}

// runEach is run for a pass that works one block at a time.
func (o *optimizer) runEach(name string, pass func(*eblock) int) {
	o.run(name, func() int {
		n := 0
		for _, b := range o.blocks {
			n += pass(b)
		}
		return n
	})
}

// kill marks instruction i removed; sweepDead drops it.
func (b *eblock) kill(i int) {
	b.meta[i].dead = true
	b.ndead++
}

// nextLive returns the first unmarked instruction index at or after i
// (len(b.ins) when there is none).
func (b *eblock) nextLive(i int) int {
	for i < len(b.ins) && b.meta[i].dead {
		i++
	}
	return i
}

// sweepDead compacts, in place, every block holding marked instructions.
func sweepDead(blocks []*eblock) {
	for _, b := range blocks {
		if b.ndead == 0 {
			continue
		}
		n := 0
		for i := range b.ins {
			if b.meta[i].dead {
				continue
			}
			if n != i {
				b.ins[n], b.meta[n] = b.ins[i], b.meta[i]
			}
			n++
		}
		b.ins, b.meta, b.ndead = b.ins[:n], b.meta[:n], 0
	}
}

// --- addressing-chain folding ---

// addrFold folds register copy/add chains into memory operands:
//
//	mov r8, r2 ; addi r8, C ; fload f, [r8+D]  ->  fload f, [r2+C+D]
//
// The mov/addi become dead and are removed by deadCode. A tiny local value
// numbering with generation counters keeps the rewrite sound.
func addrFold(b *eblock) int {
	type expr struct {
		valid   bool
		hasBase bool
		base    isa.Reg
		baseGen int
		off     int64
	}
	var exprs [isa.NumRegs]expr
	var gen [isa.NumRegs]int
	kill := func(r isa.Reg) {
		gen[r]++
		exprs[r] = expr{}
	}
	record := func(dst isa.Reg, e expr) {
		gen[dst]++
		exprs[dst] = e
	}
	fold := func(m *isa.MemRef) {
		if !m.HasBase() || m.Base == isa.SP {
			return
		}
		e := exprs[m.Base]
		if !e.valid {
			return
		}
		nd := int64(m.Disp) + e.off
		if nd < -1<<31 || nd >= 1<<31 {
			return
		}
		if e.hasBase {
			if gen[e.base] != e.baseGen || e.base == m.Index {
				return
			}
			m.Base = e.base
			m.Disp = int32(nd)
			return
		}
		// Constant address.
		if m.HasIndex() || nd < 0 {
			return
		}
		*m = isa.Abs(int32(nd))
	}
	for i := range b.ins {
		if b.meta[i].dead {
			continue
		}
		in := &b.ins[i]
		// Fold the memory operand first (uses pre-instruction state).
		switch isa.Info(in.Op).Format {
		case isa.FRM:
			if in.Op != isa.LEA { // LEA result tracking handled below
				fold(&in.Src.Mem)
			}
		case isa.FMR:
			fold(&in.Dst.Mem)
		}
		// Update tracked expressions.
		switch in.Op {
		case isa.MOVI:
			record(in.Dst.Reg, expr{valid: true, off: in.Src.Imm})
		case isa.MOV:
			src := in.Src.Reg
			if e := exprs[src]; e.valid {
				ne := e
				if ne.hasBase && gen[ne.base] != ne.baseGen {
					ne = expr{valid: true, hasBase: true, base: src, baseGen: gen[src]}
				}
				record(in.Dst.Reg, ne)
			} else {
				record(in.Dst.Reg, expr{valid: true, hasBase: true, base: src, baseGen: gen[src]})
			}
		case isa.ADDI, isa.SUBI:
			d := in.Dst.Reg
			delta := in.Src.Imm
			if in.Op == isa.SUBI {
				delta = -delta
			}
			if e := exprs[d]; e.valid && (!e.hasBase || gen[e.base] == e.baseGen) {
				e.off += delta
				record(d, e)
			} else {
				kill(d)
			}
		default:
			for defs := insDefs(in).ints(); defs != 0; {
				kill(defs.nextReg())
			}
			if isBarrier(in.Op) {
				for r := range exprs {
					kill(isa.Reg(r))
				}
			}
		}
	}
	return 0
}

// --- register renaming ---

// renameCalleeSaved renames callee-saved registers that generated code
// still uses to unused caller-saved registers, making their save/restore
// sequences dead (the paper's Section VIII "register renaming" next step).
// Only valid when the code contains no calls (a call would clobber the
// caller-saved replacement).
func (o *optimizer) renameCalleeSaved() int {
	blocks := o.blocks
	var used regMask
	for _, b := range blocks {
		for i := range b.ins {
			in := &b.ins[i]
			if in.Op == isa.CALL || in.Op == isa.CALLR {
				return 0
			}
			used |= insUses(in) | insDefs(in)
		}
	}
	// free hands out an unused caller-saved register of one file (never
	// register 0, the return register; never SP).
	free := func(file isa.RegFile, callerSaved func(isa.Reg) bool) (isa.Reg, bool) {
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			bit := regBit(file, r)
			if callerSaved(r) && used&bit == 0 && !(file == isa.RFInt && r == isa.SP) {
				used |= bit
				return r, true
			}
		}
		return 0, false
	}
	clearMarks := func() {
		for _, b := range blocks {
			for i := range b.meta {
				b.meta[i].mark = false
			}
		}
	}
	removed := 0

	// Float save/restore pairs: FSTORE [sp+X], fR early in the entry
	// block (before any other use of fR), FLOAD fR, [sp+X] in every RET
	// block with no later use of fR. The pair is marked, the marks stand in
	// for "as if removed" while the body is checked, and a successful
	// rename turns them into removals. One pair at a time: removal shifts
	// the indices floatSaves reports.
	entry := blocks[0]
	for renamed := true; renamed; {
		renamed = false
		for _, cand := range floatSaves(entry) {
			fR, disp := cand.reg, cand.disp
			ok, restores := true, 0
			for _, b := range blocks {
				if !b.returns() {
					continue
				}
				idx := -1
				for i := range b.ins {
					if in := &b.ins[i]; in.Op == isa.FLOAD && in.Dst.Reg == fR &&
						in.Src.Mem.Base == isa.SP && !in.Src.Mem.HasIndex() && in.Src.Mem.Disp == disp {
						idx = i
					}
				}
				if idx < 0 {
					ok = false
					break
				}
				for i := idx + 1; i < len(b.ins); i++ {
					if insUses(&b.ins[i])&floatBit(fR) != 0 {
						ok = false
					}
				}
				b.meta[idx].mark = true
				restores++
			}
			entry.meta[cand.idx].mark = true
			// The body must never read the *incoming* value of fR:
			// renaming would then read garbage.
			if ok && restores > 0 && !readsIncoming(blocks, floatBit(fR)) {
				if nr, found := free(isa.RFFloat, isa.CallerSavedFloat); found {
					for _, b := range blocks {
						for i := range b.ins {
							if b.meta[i].mark {
								b.kill(i)
								removed++
							} else {
								renameFloatReg(&b.ins[i], fR, nr)
							}
						}
					}
					sweepDead(blocks)
					renamed = true
				}
			}
			clearMarks()
			if renamed {
				break
			}
		}
	}

	// Integer callee-saved registers: rename body occurrences, leaving
	// the PUSH/POP save/restore pairs for removeDeadSaves to collect.
	//
	// Only the function's own prologue pushes and epilogue pops may be
	// exempted from renaming. Inlined callees contribute further PUSH/POP
	// pairs mid-block, and body uses of the register between such a pair
	// are scratch uses protected by it: renaming them to a caller-saved
	// register (while the pair keeps saving the old one) would let the
	// scratch writes clobber the outer live value. A register with any
	// PUSH/POP occurrence outside the prologue/epilogue is therefore not
	// a rename candidate.
	start := 0
	for start < len(entry.ins) && entry.ins[start].Op == isa.CALL {
		start++
	}
	var pushedOrder []isa.Reg
	for i := start; i < len(entry.ins) && entry.ins[i].Op == isa.PUSH; i++ {
		entry.meta[i].mark = true
		pushedOrder = append(pushedOrder, entry.ins[i].Dst.Reg)
	}
	for _, b := range blocks {
		if !b.returns() {
			continue
		}
		end := len(b.ins) - 1
		for end > 0 && b.ins[end-1].Op == isa.CALL {
			end-- // exit-handler call between pops and RET
		}
		for i := end - 1; i >= 0 && b.ins[i].Op == isa.POP; i-- {
			b.meta[i].mark = true
		}
	}
	// inner: registers pushed or popped anywhere else.
	var inner regMask
	for _, b := range blocks {
		for i := range b.ins {
			if in := &b.ins[i]; (in.Op == isa.PUSH || in.Op == isa.POP) && !b.meta[i].mark {
				inner |= intBit(in.Dst.Reg)
			}
		}
	}
	for _, r := range pushedOrder {
		if !isa.CalleeSavedInt(r) || inner&intBit(r) != 0 || readsIncoming(blocks, intBit(r)) {
			continue
		}
		nr, found := free(isa.RFInt, isa.CallerSavedInt)
		if !found {
			continue
		}
		for _, b := range blocks {
			for i := range b.ins {
				if !b.meta[i].mark {
					renameIntReg(&b.ins[i], r, nr)
				}
			}
		}
	}
	clearMarks()
	return removed
}

// returns reports whether the block's last instruction is RET.
func (b *eblock) returns() bool {
	return len(b.ins) > 0 && b.ins[len(b.ins)-1].Op == isa.RET
}

// readsIncoming reports whether any execution path from the entry may read
// register r before writing it, ignoring marked instructions (save/restore
// pairs under consideration). Backward may-analysis over the block graph.
func readsIncoming(blocks []*eblock, r regMask) bool {
	// needIn[b]: executing from b's start may read r before writing it.
	needIn := make([]bool, len(blocks))
	localNeed := make([]int8, len(blocks)) // 1 reads-first, -1 writes-first, 0 transparent
	for bi, b := range blocks {
		for i := range b.ins {
			if b.meta[i].mark {
				continue
			}
			if insUses(&b.ins[i])&r != 0 {
				localNeed[bi] = 1
				break
			}
			if insDefs(&b.ins[i])&r != 0 {
				localNeed[bi] = -1
				break
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for bi, b := range blocks {
			if needIn[bi] || localNeed[bi] == -1 {
				continue
			}
			v := localNeed[bi] == 1
			if !v && localNeed[bi] == 0 {
				if b.term == termFall && b.succ >= 0 {
					v = needIn[b.succ]
				}
				if b.term == termJcc {
					v = (b.succ >= 0 && needIn[b.succ]) || (b.jcc >= 0 && needIn[b.jcc])
				}
			}
			if v && !needIn[bi] {
				needIn[bi] = true
				changed = true
			}
		}
	}
	return needIn[0]
}

type floatSave struct {
	idx  int
	reg  isa.Reg
	disp int32
}

// floatSaves finds prologue FSTOREs of callee-saved float registers that
// occur before any other use or definition of the register.
func floatSaves(entry *eblock) []floatSave {
	var out []floatSave
	var seen regMask
	for i := range entry.ins {
		in := &entry.ins[i]
		if in.Op == isa.FSTORE && in.Dst.Mem.Base == isa.SP && !in.Dst.Mem.HasIndex() &&
			isa.CalleeSavedFloat(in.Src.Reg) && seen&floatBit(in.Src.Reg) == 0 {
			out = append(out, floatSave{idx: i, reg: in.Src.Reg, disp: in.Dst.Mem.Disp})
			seen |= floatBit(in.Src.Reg)
			continue
		}
		seen |= insUses(in) | insDefs(in)
	}
	return out
}

func renameFloatReg(in *isa.Instr, from, to isa.Reg) {
	if in.Dst.Kind == isa.KindFReg && in.Dst.Reg == from {
		in.Dst.Reg = to
	}
	if in.Src.Kind == isa.KindFReg && in.Src.Reg == from {
		in.Src.Reg = to
	}
}

func renameIntReg(in *isa.Instr, from, to isa.Reg) {
	if in.Dst.Kind == isa.KindReg && in.Dst.Reg == from {
		in.Dst.Reg = to
	}
	if in.Src.Kind == isa.KindReg && in.Src.Reg == from {
		in.Src.Reg = to
	}
	if in.Dst.Kind == isa.KindMem {
		if in.Dst.Mem.HasBase() && in.Dst.Mem.Base == from {
			in.Dst.Mem.Base = to
		}
		if in.Dst.Mem.HasIndex() && in.Dst.Mem.Index == from {
			in.Dst.Mem.Index = to
		}
	}
	if in.Src.Kind == isa.KindMem {
		if in.Src.Mem.HasBase() && in.Src.Mem.Base == from {
			in.Src.Mem.Base = to
		}
		if in.Src.Mem.HasIndex() && in.Src.Mem.Index == from {
			in.Src.Mem.Index = to
		}
	}
}

// --- store-to-load forwarding (frame slots) ---

// frameFwd says that the frame slot at SP displacement disp was just stored
// from a register that still holds the value.
type frameFwd struct {
	disp  int32
	reg   isa.Reg
	float bool
}

// forwardFrameStores replaces a load from a frame slot with a register
// move (or nothing) when the slot was just stored from a register that
// still holds the value. Only SP-based, index-free accesses participate;
// with frameSafe, non-frame stores cannot alias them.
func (o *optimizer) forwardFrameStores(b *eblock) int {
	avail := o.fwd[:0]
	// drop forgets every forwarding a predicate selects.
	drop := func(gone func(frameFwd) bool) {
		for k := 0; k < len(avail); {
			if gone(avail[k]) {
				avail[k] = avail[len(avail)-1]
				avail = avail[:len(avail)-1]
			} else {
				k++
			}
		}
	}
	dropNear := func(disp, reach int32) {
		drop(func(f frameFwd) bool { return f.disp > disp-reach && f.disp < disp+reach })
	}
	// A vector definition also drops the integer forwarding of the same
	// register number: the map-based pass matched "not float" on the number
	// alone, and its decisions are kept.
	dropRegs := func(defs regMask) {
		drop(func(f frameFwd) bool {
			if f.float {
				return defs&floatBit(f.reg) != 0
			}
			return defs&(intBit(f.reg)|regBit(isa.RFVec, f.reg)) != 0
		})
	}
	removed := 0
	for i := range b.ins {
		if b.meta[i].dead {
			continue
		}
		ins := &b.ins[i]
		switch ins.Op {
		case isa.STORE, isa.FSTORE:
			if m := ins.Dst.Mem; m.Base == isa.SP && !m.HasIndex() {
				// Overlapping slots are invalidated.
				dropNear(m.Disp, 8)
				avail = append(avail, frameFwd{disp: m.Disp, reg: ins.Src.Reg, float: ins.Op == isa.FSTORE})
			}
			// Non-frame store: cannot alias the private frame (frameSafe).
			continue
		case isa.STOREB, isa.VSTORE:
			if m := ins.Dst.Mem; m.Base == isa.SP && !m.HasIndex() {
				dropNear(m.Disp, 8*isa.VecLanes)
			}
			continue
		case isa.LOAD, isa.FLOAD:
			if m := ins.Src.Mem; m.Base == isa.SP && !m.HasIndex() {
				k := 0
				for k < len(avail) && avail[k].disp != m.Disp {
					k++
				}
				if k < len(avail) && avail[k].float == (ins.Op == isa.FLOAD) {
					if f := avail[k]; f.reg == ins.Dst.Reg {
						b.kill(i)
						removed++
					} else {
						op := isa.MOV
						if f.float {
							op = isa.FMOV
						}
						*ins = isa.MakeRR(op, ins.Dst.Reg, f.reg)
						b.meta[i] = insMeta{}
						// The slot's forwarding survives; those from the
						// overwritten register do not.
						dropRegs(insDefs(ins))
					}
					continue
				}
			}
		case isa.PUSH, isa.POP:
			// SP changes: displacement keys are relative to SP, so all
			// tracked slots shift meaning.
			avail = avail[:0]
		}
		if isBarrier(ins.Op) {
			avail = avail[:0]
		}
		if defs := insDefs(ins); defs&intBit(isa.SP) != 0 {
			avail = avail[:0]
		} else if defs != 0 {
			dropRegs(defs)
		}
	}
	o.fwd = avail[:0]
	return removed
}

// --- dead frame stores ---

// frameSpan is a byte range of the frame, as deltas from the entry SP.
type frameSpan struct{ lo, hi int64 }

// deadFrameStores removes plain stores into private frame slots (delta
// below the entry SP) that no emitted load ever reads.
func (o *optimizer) deadFrameStores() int {
	// Every loaded range, sorted and merged into disjoint spans, so that
	// "does any load read this store" is one binary search.
	loads := o.loads[:0]
	for _, b := range o.blocks {
		for i := range b.meta {
			if m := b.meta[i]; m.frameLoad && !m.dead {
				loads = append(loads, m.span())
			}
		}
	}
	slices.SortFunc(loads, func(a, b frameSpan) int { return cmp.Compare(a.lo, b.lo) })
	merged := loads[:0]
	for _, l := range loads {
		if n := len(merged); n > 0 && l.lo <= merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, l.hi)
		} else {
			merged = append(merged, l)
		}
	}
	o.loads = loads
	overlapsLoad := func(st frameSpan) bool {
		// First span ending above st.lo; spans are disjoint, so it is the
		// only candidate.
		i, _ := slices.BinarySearchFunc(merged, st.lo, func(s frameSpan, lo int64) int {
			if s.hi > lo {
				return 1
			}
			return -1
		})
		return i < len(merged) && merged[i].lo < st.hi
	}
	removed := 0
	for _, b := range o.blocks {
		for i := range b.ins {
			m := b.meta[i]
			if m.dead || !m.frameStore || m.delta >= 0 {
				continue
			}
			switch b.ins[i].Op {
			case isa.STORE, isa.STOREB, isa.FSTORE, isa.VSTORE:
				if !overlapsLoad(m.span()) {
					b.kill(i)
					removed++
				}
			}
			// PUSH also stores, but carries an SP side effect; dead
			// save/restore pairs are removed by removeDeadSaves.
		}
	}
	return removed
}

// --- copy-dance coalescing ---

// copyDance rewrites the two-address copy pattern compilers emit for
// "a = a op b":
//
//	mov t, a ; op t, b ; mov a, t   ->   op a, b
//
// when t is not read again before being overwritten in the block.
func copyDance(b *eblock) int {
	removed := 0
	isCopy := func(in *isa.Instr) bool { return in.Op == isa.MOV || in.Op == isa.FMOV }
	for i := b.nextLive(0); i < len(b.ins); i = b.nextLive(i + 1) {
		j := b.nextLive(i + 1)
		k := b.nextLive(j + 1)
		if k >= len(b.ins) {
			break
		}
		c1, c2, c3 := &b.ins[i], &b.ins[j], &b.ins[k]
		if !isCopy(c1) || !isCopy(c3) || c1.Op != c3.Op {
			continue
		}
		t, a := c1.Dst.Reg, c1.Src.Reg
		if c3.Dst.Reg != a || c3.Src.Reg != t || t == a {
			continue
		}
		info := isa.Info(c2.Op)
		if info.Format != isa.FRR && info.Format != isa.FRI {
			continue
		}
		if !isALUish(c2.Op) || c2.Dst.Reg != t {
			continue
		}
		wantFile := isa.RFInt
		if c1.Op == isa.FMOV {
			wantFile = isa.RFFloat
		}
		if info.DstFile != wantFile {
			continue
		}
		if info.Format == isa.FRR && c2.Src.Reg == a && info.SrcFile == wantFile {
			continue // op reads a: rewriting would read the new a mid-op
		}
		// t must not be read later before being redefined.
		if regReadBeforeRedefined(b, k+1, regRef{wantFile, t}) {
			continue
		}
		if info.Format == isa.FRR && c2.Src.Reg == t && info.SrcFile == wantFile {
			c2.Src.Reg = a
		}
		c2.Dst.Reg = a
		b.kill(i)
		b.kill(k)
		removed += 2
	}
	return removed
}

func isALUish(op isa.Opcode) bool {
	switch op {
	case isa.ADD, isa.SUB, isa.IMUL, isa.IDIV, isa.IREM, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.SAR,
		isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		return true
	}
	return false
}

// regReadBeforeRedefined reports whether r is read at or after index from,
// before being written, within the block (conservatively true when the
// block ends without redefinition, unless it ends in RET and r is
// ABI-dead there).
func regReadBeforeRedefined(b *eblock, from int, r regRef) bool {
	bit := r.bit()
	for j := from; j < len(b.ins); j++ {
		if b.meta[j].dead {
			continue
		}
		in := &b.ins[j]
		if isBarrier(in.Op) && in.Op != isa.RET {
			return true // call may consume anything
		}
		if insUses(in)&bit != 0 {
			return true
		}
		if in.Op == isa.RET {
			return !abiDeadAtReturn(r)
		}
		if insDefs(in)&bit != 0 {
			return false
		}
	}
	return true // live out of the block (conservative)
}

func abiDeadAtReturn(r regRef) bool {
	if r.file == isa.RFVec {
		return true
	}
	if r.reg == 0 {
		return false // return registers R0/F0
	}
	if r.file == isa.RFInt {
		return isa.CallerSavedInt(r.reg)
	}
	return isa.CallerSavedFloat(r.reg)
}

// --- liveness-based dead code elimination ---

// liveSet is a register set with an "everything" top element (used around
// calls, whose callees may read any register). all is sticky: removing a
// definition from the set does not lower it.
type liveSet struct {
	mask regMask
	all  bool
	flag bool // condition flags live
}

func (s *liveSet) union(o liveSet) bool {
	changed := (o.all && !s.all) || (o.flag && !s.flag) || o.mask&^s.mask != 0
	s.all = s.all || o.all
	s.flag = s.flag || o.flag
	s.mask |= o.mask
	return changed
}

// abiReturnLive is the live-out set of a returning block: the return
// registers, SP, and everything callee-saved.
var abiReturnLive = func() liveSet {
	s := liveSet{mask: intBit(isa.R0) | floatBit(0) | intBit(isa.SP)}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if isa.CalleeSavedInt(r) {
			s.mask |= intBit(r)
		}
		if isa.CalleeSavedFloat(r) {
			s.mask |= floatBit(r)
		}
	}
	return s
}()

// scanBackward walks a block from its live-out to its live-in, marking
// removable pure instructions when kill is set.
func scanBackward(b *eblock, live liveSet, kill bool) (in liveSet, removed int) {
	for i := len(b.ins) - 1; i >= 0; i-- {
		if b.meta[i].dead {
			continue
		}
		ins := &b.ins[i]
		defs := insDefs(ins)
		if kill && defs != 0 && !live.all && isPure(ins.Op) &&
			live.mask&defs == 0 && !(isa.SetsFlags(ins.Op) && live.flag) {
			b.kill(i)
			removed++
			continue
		}
		if ins.Op == isa.CALL || ins.Op == isa.CALLR {
			live.all = true
			live.flag = false
		}
		if isa.ReadsFlags(ins.Op) {
			live.flag = true
		} else if isa.SetsFlags(ins.Op) {
			live.flag = false
		}
		live.mask = live.mask&^defs | insUses(ins)
	}
	return live, removed
}

// deadCodeGlobal removes pure instructions whose results are never used,
// using liveness computed across the whole block graph. Returning blocks
// end with the ABI live set (caller-saved registers other than the return
// registers are dead); the flags are live into a conditional terminator.
func (o *optimizer) deadCodeGlobal() int {
	blocks, n := o.blocks, len(o.blocks)
	if cap(o.liveIn) < n {
		o.liveIn, o.liveOut, o.stale = make([]liveSet, n), make([]liveSet, n), make([]bool, n)
	}
	liveIn, liveOut, stale := o.liveIn[:n], o.liveOut[:n], o.stale[:n]
	for i, b := range blocks {
		switch {
		case b.term == termEnd && b.returns():
			liveOut[i] = abiReturnLive
		case b.term == termEnd:
			// HALT or failure tail: nothing provably read afterwards,
			// but stay conservative.
			liveOut[i] = liveSet{all: true}
		default:
			liveOut[i] = liveSet{flag: b.term == termJcc}
		}
		liveIn[i] = liveSet{}
		stale[i] = true
	}
	// A block's live-in is a function of its live-out alone, so a block
	// is rescanned only when its live-out grew since its last scan.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := blocks[i]
			if b.term != termEnd && b.succ >= 0 && liveOut[i].union(liveIn[b.succ]) {
				stale[i] = true
			}
			if b.term == termJcc && b.jcc >= 0 && liveOut[i].union(liveIn[b.jcc]) {
				stale[i] = true
			}
			if !stale[i] {
				continue
			}
			stale[i] = false
			in, _ := scanBackward(b, liveOut[i], false)
			if liveIn[i].union(in) {
				changed = true
			}
		}
	}
	removed := 0
	for i, b := range blocks {
		_, k := scanBackward(b, liveOut[i], true)
		removed += k
	}
	return removed
}

// isPure reports whether an instruction only writes registers (and flags):
// no memory effects, no control transfer.
func isPure(op isa.Opcode) bool {
	switch op {
	case isa.MOV, isa.MOVI, isa.LEA, isa.ADD, isa.SUB, isa.IMUL, isa.AND,
		isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.ADDI, isa.SUBI,
		isa.IMULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI,
		isa.SARI, isa.NEG, isa.NOT, isa.SETCC, isa.FMOV, isa.FMOVI,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FNEG, isa.FSQRT, isa.CVTIF,
		isa.CVTFI, isa.FMOVFI, isa.FMOVIF, isa.VADD, isa.VSUB, isa.VMUL,
		isa.VBCAST, isa.VHADD, isa.NOP:
		// Note: IDIV/IREM/FDIV excluded (fault/IEEE side conditions kept).
		return true
	}
	return false
}

// --- duplicate loads ---

// redundantLoads removes a LOAD/FLOAD whose exact memory operand was
// loaded into the same register immediately before, with no intervening
// stores, calls or writes to the operand's registers (Section V.B:
// "instruction reordering removing redundant loads").
func redundantLoads(b *eblock) int {
	// from[r] is the operand integer register r was last loaded from, reads
	// the registers that operand names, and cur the set of r for which the
	// load is still current; fromF, readsF and curF the same for the float
	// file.
	var from, fromF [isa.NumRegs]isa.MemRef
	var reads, readsF [isa.NumRegs]regMask
	var cur, curF regMask
	invalidate := func(defs regMask) {
		curF &^= defs.floats()
		id := defs.ints()
		if id == 0 {
			return
		}
		cur &^= id
		for m := cur; m != 0; {
			if r := m.nextReg(); reads[r]&id != 0 {
				cur &^= intBit(r)
			}
		}
		for m := curF; m != 0; {
			if r := m.nextReg(); readsF[r]&id != 0 {
				curF &^= intBit(r)
			}
		}
	}
	removed := 0
	for i := range b.ins {
		if b.meta[i].dead {
			continue
		}
		ins := &b.ins[i]
		switch dst := ins.Dst.Reg; ins.Op {
		case isa.LOAD:
			if cur&intBit(dst) != 0 && from[dst] == ins.Src.Mem {
				b.kill(i)
				removed++
				continue
			}
			invalidate(intBit(dst))
			if r := memRegs(ins.Src.Mem); r&intBit(dst) == 0 {
				from[dst], reads[dst] = ins.Src.Mem, r
				cur |= intBit(dst)
			}
			continue
		case isa.FLOAD:
			if curF&intBit(dst) != 0 && fromF[dst] == ins.Src.Mem {
				b.kill(i)
				removed++
				continue
			}
			fromF[dst], readsF[dst] = ins.Src.Mem, memRegs(ins.Src.Mem)
			curF |= intBit(dst)
			continue
		case isa.STORE, isa.STOREB, isa.FSTORE, isa.VSTORE, isa.PUSH, isa.POP:
			cur, curF = 0, 0
		}
		if isBarrier(ins.Op) {
			cur, curF = 0, 0
		}
		invalidate(insDefs(ins))
	}
	return removed
}

// --- dead callee-saved saves and frame shrinking ---

// removeDeadSaves drops PUSH/POP pairs of callee-saved registers the
// generated code never uses (specialization freed them), and removes the
// frame allocation entirely when no stack slot remains. All SP-relative
// displacements are rebased accordingly. This is the payoff the paper
// sketches as "register renaming ... avoiding register spills to the
// stack" (Sections IV and VIII).
func (o *optimizer) removeDeadSaves() int {
	blocks := o.blocks
	if len(blocks) == 0 {
		return 0
	}
	// Removing prologue pushes shifts the private frame up uniformly.
	// That is invisible as long as every remaining SP-relative access
	// targets the private region (delta < 0): sp-relative addressing
	// moves with the frame. Accesses into the caller region (delta >= 0)
	// would land 8 bytes off per removed push, so their presence blocks
	// the pass.
	for _, b := range blocks {
		for i := range b.ins {
			if !usesSPMem(&b.ins[i]) {
				continue
			}
			if m := b.meta[i]; !(m.frameLoad || m.frameStore) || m.delta >= 0 {
				return 0
			}
		}
	}
	entry := blocks[0]
	// Locate the prologue push run (allowing a leading handler call).
	first := 0
	for first < len(entry.ins) && entry.ins[first].Op == isa.CALL {
		first++
	}
	npush := 0
	for first+npush < len(entry.ins) && entry.ins[first+npush].Op == isa.PUSH {
		npush++
	}
	if npush == 0 {
		return shrinkFrame(blocks)
	}
	// No SP-relative accesses may precede the push run.
	for i := 0; i < first; i++ {
		if usesSPMem(&entry.ins[i]) {
			return 0
		}
	}
	// popsEnd returns the index just past a RET block's pop run (an
	// exit-handler CALL may sit between the pops and the RET).
	popsEnd := func(b *eblock) int {
		end := len(b.ins) - 1
		for end > 0 && b.ins[end-1].Op == isa.CALL {
			end--
		}
		return end
	}
	// Every RET block must end with the mirrored pop run: push k pairs
	// with the pop at popsEnd-1-k.
	rets := 0
	for _, b := range blocks {
		if !b.returns() {
			continue
		}
		end := popsEnd(b)
		if end < npush {
			return 0
		}
		for k := 0; k < npush; k++ {
			if in := &b.ins[end-1-k]; in.Op != isa.POP || in.Dst.Reg != entry.ins[first+k].Dst.Reg {
				return 0
			}
		}
		rets++
	}
	if rets == 0 {
		return 0
	}
	// Which saved registers are actually used elsewhere? Mark the pairs,
	// collect what everything unmarked touches.
	for k := 0; k < npush; k++ {
		entry.meta[first+k].mark = true
	}
	for _, b := range blocks {
		if b.returns() {
			for k, end := 0, popsEnd(b); k < npush; k++ {
				b.meta[end-1-k].mark = true
			}
		}
	}
	var used regMask
	for _, b := range blocks {
		for i := range b.ins {
			if !b.meta[i].mark {
				used |= insUses(&b.ins[i]) | insDefs(&b.ins[i])
			}
		}
	}
	for _, b := range blocks {
		for i := range b.meta {
			b.meta[i].mark = false
		}
	}
	// Remove unused pairs.
	removed := 0
	for k := 0; k < npush; k++ {
		if used&intBit(entry.ins[first+k].Dst.Reg) != 0 {
			continue
		}
		entry.kill(first + k)
		removed++
		for _, b := range blocks {
			if b.returns() {
				b.kill(popsEnd(b) - 1 - k)
				removed++
			}
		}
	}
	sweepDead(blocks)
	return removed + shrinkFrame(blocks)
}

// usesSPMem reports whether the instruction has an SP-based memory
// operand.
func usesSPMem(in *isa.Instr) bool {
	switch isa.Info(in.Op).Format {
	case isa.FRM:
		return memRegs(in.Src.Mem)&intBit(isa.SP) != 0
	case isa.FMR:
		return memRegs(in.Dst.Mem)&intBit(isa.SP) != 0
	}
	return false
}

// shrinkFrame removes a "subi sp, K" / "addi sp, K" frame allocation when
// no SP-relative memory access remains anywhere in the generated code.
func shrinkFrame(blocks []*eblock) int {
	if len(blocks) == 0 {
		return 0
	}
	for _, b := range blocks {
		for i := range b.ins {
			if usesSPMem(&b.ins[i]) {
				return 0
			}
		}
	}
	entry := blocks[0]
	subIdx := -1
	var k int64
	for i := range entry.ins {
		in := &entry.ins[i]
		if in.Op == isa.SUBI && in.Dst.Reg == isa.SP {
			subIdx, k = i, in.Src.Imm
			break
		}
		if in.Op == isa.PUSH || in.Op == isa.CALL || in.Op == isa.MOVI || in.Op == isa.NOP {
			continue
		}
		break
	}
	if subIdx < 0 {
		return 0
	}
	// Flags from the SUBI must be dead: another setter must follow in the
	// entry block before any reader, or no reader may exist at all.
	if flagsReadBeforeSet(entry, subIdx+1) {
		return 0
	}
	// Every RET block needs the matching ADDI with no flag reader after.
	// The ADDIs are marked while the rest is checked; only a complete set
	// is removed.
	hits, ok := 0, true
	for _, b := range blocks {
		if !b.returns() {
			continue
		}
		found := -1
		for i := len(b.ins) - 1; i >= 0; i-- {
			in := &b.ins[i]
			if in.Op == isa.ADDI && in.Dst.Reg == isa.SP && in.Src.Imm == k {
				found = i
				break
			}
			if in.Op == isa.POP || in.Op == isa.RET || in.Op == isa.CALL || in.Op == isa.FMOV || in.Op == isa.MOV {
				continue
			}
			break
		}
		if found < 0 || flagsReadBeforeSet(b, found+1) {
			ok = false
			break
		}
		b.meta[found].mark = true
		hits++
	}
	removed := 0
	for _, b := range blocks {
		for i := range b.meta {
			if b.meta[i].mark {
				b.meta[i].mark = false
				if ok && hits > 0 {
					b.kill(i)
					removed++
				}
			}
		}
	}
	if removed > 0 {
		entry.kill(subIdx)
		removed++
		sweepDead(blocks)
	}
	return removed
}

// flagsReadBeforeSet reports whether, scanning forward from index i, a
// flag reader appears before the next flag setter (conservatively true at
// block end unless the block returns).
func flagsReadBeforeSet(b *eblock, i int) bool {
	for ; i < len(b.ins); i++ {
		in := &b.ins[i]
		if isa.ReadsFlags(in.Op) {
			return true
		}
		if isa.SetsFlags(in.Op) {
			return false
		}
		if in.Op == isa.RET {
			return false
		}
	}
	return b.term == termJcc || b.term == termFall
}
