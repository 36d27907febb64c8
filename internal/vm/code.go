package vm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Decoded code. Every executable segment the machine has executed from has
// a page directory (text); a page holds an executor record for each
// instruction that starts in one pageSize-byte stretch of the segment,
// found by byte offset. The instruction loop reads records in place.
//
// Records come in straight-line runs: the records of consecutive
// instructions, adjacent in the page's array, the last of which is a
// control op (endsRun), the last one in the page, the last one before an
// instruction that already had a record, the last one before bytes that
// do not decode, or the maxRun'th. Each record knows the rest of its run
// from itself on — how many records and how many base cycles — so the
// loop charges a run once and then walks it without looking anything up.
//
// Who may touch the tables: the goroutine executing the machine, which
// decodes on first execution; whoever writes code — LoadCode, InstallJIT,
// WriteJIT, InvalidateCode, InvalidateICache, a guest store into an
// executable segment — which invalidates under jitMu; and SeedCode, which
// fills records from a decode the caller has already verified, under
// jitMu. Writers may race each other; as ever, they must not run while the
// machine executes unless they are called from one of its callbacks.

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// xrec is the executor's record of one decoded instruction: what the loop
// needs of an isa.Instr, in 24 bytes instead of ~96.
type xrec struct {
	// imm is the one constant an instruction carries: the FRI immediate
	// (FMOVI: raw float64 bits), the FRel/FCC absolute target, or the
	// memory operand's displacement.
	imm int64
	off uint16 // byte offset of the instruction in its page
	// rest is the number of records from this one to the end of its run,
	// and restCost their summed base cost. They are the only fields that
	// change after a record is made: forget trims a run that reaches into
	// forgotten code.
	rest, restCost uint16
	op             isa.Opcode
	cc             isa.Cond
	// dst and src are the register operands: Instr.Dst.Reg and
	// Instr.Src.Reg when those are registers (FRM: dst is the loaded
	// register; FMR: src is the stored one).
	dst, src isa.Reg
	// base and index (isa.RegNone when absent) and scale describe the
	// memory operand.
	base, index isa.Reg
	scale       uint8
	len         uint8
	cost        uint8 // the opcode's base cycle cost
}

// record builds the executor record of ins, which starts at page offset
// off.
func record(ins *isa.Instr, off uint64) xrec {
	x := xrec{off: uint16(off), op: ins.Op, cc: ins.CC,
		base: isa.RegNone, index: isa.RegNone, scale: 1, len: uint8(ins.Len), cost: opCost[ins.Op]}
	switch d := &ins.Dst; d.Kind {
	case isa.KindReg, isa.KindFReg, isa.KindVReg:
		x.dst = d.Reg
	case isa.KindImm:
		x.imm = d.Imm
	case isa.KindMem:
		x.imm, x.base, x.index, x.scale = int64(d.Mem.Disp), d.Mem.Base, d.Mem.Index, d.Mem.Scale
	}
	switch s := &ins.Src; s.Kind {
	case isa.KindReg, isa.KindFReg, isa.KindVReg:
		x.src = s.Reg
	case isa.KindImm:
		x.imm = s.Imm
	case isa.KindMem:
		x.imm, x.base, x.index, x.scale = int64(s.Mem.Disp), s.Mem.Base, s.Mem.Index, s.Mem.Scale
	}
	return x
}

// opCost is isa's base cycle cost per opcode, flattened so a record
// carries one byte instead of an isa.OpInfo lookup.
var opCost = func() (t [256]uint8) {
	for op := 0; op < isa.NumOpcodes; op++ {
		t[op] = uint8(isa.Opcode(op).Cost())
	}
	return t
}()

// maxRun bounds a run, so that its cost fits restCost: 256 records of at
// most 255 cycles each.
const maxRun = 256

// endsRun reports whether op ends a straight-line run: it may transfer
// control, or it stops the machine.
func endsRun(op isa.Opcode) bool {
	switch op {
	case isa.JMP, isa.JMPR, isa.JCC, isa.CALL, isa.CALLR, isa.RET, isa.HALT, isa.BRK:
		return true
	}
	return false
}

// codePage is the decoded form of one page of code.
type codePage struct {
	// ins holds the page's records in the order they were made, each run
	// contiguous. Apart from a trim of its run, a record is never
	// rewritten in place, only orphaned (by invalidate) or left behind in
	// an array the page has replaced, so the run the loop walks stays good
	// across anything one of its instructions can do — a store into its
	// own code included.
	ins []xrec
	// live counts the records some slot points at; the rest of ins are
	// orphans.
	live int
	// slot maps a byte offset in the page to 1 + the index in ins of the
	// record of the instruction starting there; 0: not decoded.
	slot [pageSize]uint16
}

// add makes x the record of the instruction at page offset x.off, which
// has none. The caller seals the run x belongs to.
func (pg *codePage) add(x xrec) {
	pg.room(1)
	pg.ins = append(pg.ins, x)
	pg.live++
	pg.slot[x.off] = uint16(len(pg.ins))
}

// room makes space for n more records. A full array is not grown in place:
// its live records move, in order, to a fresh one, and its orphans stay
// behind; the records of a live run stay adjacent, since a run holds no
// orphan. The fresh array holds twice the live records plus two (a run
// decoded one record at a time), or exactly live+n when that is more (a
// body seeded whole). Live records start at distinct offsets, so neither
// exceeds 2*pageSize+2 and an index always fits a 16-bit slot.
func (pg *codePage) room(n int) {
	if len(pg.ins)+n <= cap(pg.ins) {
		return
	}
	ins := make([]xrec, 0, max(2*pg.live+2, pg.live+n))
	for i := range pg.ins {
		if x := &pg.ins[i]; int(pg.slot[x.off]) == i+1 {
			ins = append(ins, *x)
			pg.slot[x.off] = uint16(len(ins))
		}
	}
	pg.ins = ins
}

// seal makes the last k records of the page one run (k = 0: none).
func (pg *codePage) seal(k int) {
	run := pg.ins[len(pg.ins)-k:]
	var cost uint16
	for i := k - 1; i >= 0; i-- {
		cost += uint16(run[i].cost)
		run[i].rest, run[i].restCost = uint16(k-i), cost
	}
}

// forget orphans the records of the instructions starting at page offsets
// [from, to), and trims each run that reaches into them to end before the
// first record it loses. What follows the forgotten records in a run is a
// run of its own already: rest and restCost count to the run's end.
func (pg *codePage) forget(from, to uint64) {
	for i, s := range pg.slot[from:to] {
		if s == 0 {
			continue
		}
		// Offsets go up within a run, so a forgotten predecessor has its
		// slot cleared by now and stops the walk.
		j := int(s) - 1
		var cost uint16
		for k := j - 1; k >= 0 && int(pg.ins[k].rest) > j-k && int(pg.slot[pg.ins[k].off]) == k+1; k-- {
			cost += uint16(pg.ins[k].cost)
			pg.ins[k].rest, pg.ins[k].restCost = uint16(j-k), cost
		}
		pg.slot[from+uint64(i)] = 0
		pg.live--
	}
}

// text is the page directory of one executable segment.
type text struct {
	seg   *mem.Segment
	pages []*codePage // nil: nothing decoded in that page
}

// page returns page pi of the directory, creating it empty.
func (t *text) page(pi uint64) *codePage {
	pg := t.pages[pi]
	if pg == nil {
		pg = new(codePage)
		t.pages[pi] = pg
	}
	return pg
}

// noPage is what Machine.page points at when no page is current: every
// slot misses, so the loop needs no nil check.
var noPage codePage

// fetch returns the page and index of the record of the instruction at pc,
// decoding the run it starts if this is its first execution since it was
// written, and makes its page the current one. The loop calls it when the
// current page does not have pc.
func (m *Machine) fetch(pc uint64) (*codePage, int, error) {
	t := m.textAt(pc)
	if t == nil {
		_, err := m.Mem.FetchSlice(pc) // unmapped or not executable: say which
		return nil, 0, err
	}
	off := pc - t.seg.Base
	pi, po := off>>pageShift, off&(pageSize-1)
	pg := t.page(pi)
	m.page, m.pageBase = pg, pc-po
	if i := pg.slot[po]; i == 0 {
		if err := m.decodeRun(t.seg, pg, pc, po); err != nil {
			return nil, 0, err
		}
	}
	return pg, int(pg.slot[po]) - 1, nil
}

// decodeRun decodes the straight-line run starting at pc, page offset po
// of pg, which has no record there. Only a failure to decode the first
// instruction is an error: later ones end the run, and fault if and when
// they are executed.
func (m *Machine) decodeRun(seg *mem.Segment, pg *codePage, pc, po uint64) error {
	k := 0
	for {
		ins, err := isa.Decode(seg.Fetch(pc), pc)
		if err != nil {
			if k == 0 {
				return err
			}
			break
		}
		m.decodes++
		pg.add(record(&ins, po))
		k++
		pc, po = pc+uint64(ins.Len), po+uint64(ins.Len)
		if endsRun(ins.Op) || k == maxRun || po >= pageSize || pg.slot[po] != 0 || !seg.Contains(pc) {
			break
		}
	}
	pg.seal(k)
	return nil
}

// textAt returns the directory of the executable segment holding pc,
// creating it on the segment's first execution; nil if there is no such
// segment.
func (m *Machine) textAt(pc uint64) *text {
	for _, t := range m.texts {
		if t.seg.Contains(pc) {
			return t
		}
	}
	s := m.Mem.Find(pc)
	if s == nil || s.Perm&mem.PermExec == 0 {
		return nil
	}
	t := &text{seg: s, pages: make([]*codePage, (s.Size+pageSize-1)>>pageShift)}
	m.texts = append(m.texts, t)
	return t
}

// SeedCode makes stream the machine's decoded form of the code it was
// decoded from, runs and all, so that code's first execution decodes
// nothing. stream
// must be a decode the caller has verified against what the machine holds
// now — spstore's adoption has proved every instruction of a placed body
// in lock-step and read the body back — and it must be contiguous, lie in
// one executable segment, and name at each address the opcode byte memory
// holds there; otherwise SeedCode refuses and seeds nothing. An
// instruction that already has a record keeps it: it was decoded from the
// same bytes, or a write since would have dropped it. Like InstallJIT it
// takes the JIT lock, and the machine must not be executing meanwhile.
func (m *Machine) SeedCode(stream []isa.Instr) error {
	if len(stream) == 0 {
		return nil
	}
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	lo := stream[0].Addr
	t := m.textAt(lo)
	if t == nil {
		return fmt.Errorf("vm: seed at %#x: not in an executable segment", lo)
	}
	end := lo
	for i := range stream {
		ins := &stream[i]
		if ins.Addr != end || ins.Len <= 0 || ins.Len > isa.MaxInstrLen {
			return fmt.Errorf("vm: seed at %#x: instruction %d (%d bytes at %#x) does not follow at %#x",
				lo, i, ins.Len, ins.Addr, end)
		}
		end += uint64(ins.Len)
		if end > t.seg.End() {
			return fmt.Errorf("vm: seed at %#x: runs past the end of %q", lo, t.seg.Name)
		}
		if b := t.seg.Fetch(ins.Addr); b[0] != byte(ins.Op) {
			return fmt.Errorf("vm: seed at %#x: %s at %#x, memory holds opcode byte %#02x", lo, ins.Op, ins.Addr, b[0])
		}
	}
	for i := 0; i < len(stream); {
		pi := (stream[i].Addr - t.seg.Base) >> pageShift
		j := i + 1
		for j < len(stream) && (stream[j].Addr-t.seg.Base)>>pageShift == pi {
			j++
		}
		pg := t.page(pi)
		pg.room(j - i)
		run := 0 // records of the run being seeded
		for k := i; k < j; k++ {
			ins := &stream[k]
			po := (ins.Addr - t.seg.Base) & (pageSize - 1)
			if pg.slot[po] != 0 {
				pg.seal(run) // the kept record ends the run before it
				run = 0
				continue
			}
			pg.add(record(ins, po))
			if run++; endsRun(ins.Op) || run == maxRun {
				pg.seal(run)
				run = 0
			}
		}
		pg.seal(run)
		i = j
	}
	return nil
}

// invalidate forgets every decoded instruction a write to [lo, hi) may have
// changed. The caller holds jitMu.
func (m *Machine) invalidate(lo, hi uint64) {
	for _, t := range m.texts {
		base, end := t.seg.Base, t.seg.End()
		if lo >= end || hi <= base {
			continue
		}
		// An instruction is cached under its first byte and is at most
		// MaxInstrLen long: the ones reaching lo start no lower than
		// lo-(MaxInstrLen-1).
		from, to := uint64(0), min(hi, end)-base
		if lo > base+isa.MaxInstrLen-1 {
			from = lo - (isa.MaxInstrLen - 1) - base
		}
		for from < to {
			pi := from >> pageShift
			stop := min((pi+1)<<pageShift, to)
			if pg := t.pages[pi]; pg != nil {
				if stop-from == pageSize {
					t.pages[pi] = nil
					if m.page == pg {
						m.page, m.pageBase = &noPage, 0
					}
				} else {
					pg.forget(from&(pageSize-1), (stop-1)&(pageSize-1)+1)
				}
			}
			from = stop
		}
	}
}

// InvalidateCode drops the decoded form of the code in [lo, hi); required
// after writing code there by any route other than LoadCode, InstallJIT,
// WriteJIT or the guest's own stores.
func (m *Machine) InvalidateCode(lo, hi uint64) {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	m.invalidate(lo, hi)
}

// InvalidateICache is InvalidateCode over the whole address space: the one
// full flush, for a caller that does not know what it wrote.
func (m *Machine) InvalidateICache() {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	m.texts = nil
	m.page, m.pageBase = &noPage, 0
}
