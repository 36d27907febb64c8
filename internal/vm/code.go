package vm

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Decoded code. Every executable segment the machine has executed from has
// a page directory (text); a page holds the decoded form of the
// instructions that start in one pageSize-byte stretch of the segment,
// found by byte offset. The instruction loop reads a decoded instruction
// in place, through a pointer.
//
// Who may touch the tables: the goroutine executing the machine, which
// decodes on first execution, and whoever writes code — LoadCode,
// InstallJIT, WriteJIT, InvalidateCode, InvalidateICache, a guest store
// into an executable segment — which invalidates under jitMu. Writers may
// race each other; as ever, they must not run while the machine executes
// unless they are called from one of its callbacks.

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// codePage is the decoded form of one page of code.
type codePage struct {
	// ins holds the page's decoded instructions in order of first
	// execution. Entries are never rewritten in place, only orphaned (by
	// invalidate) or dropped with the page, so the pointer the loop holds
	// stays good across anything the instruction it belongs to can do.
	ins []isa.Instr
	// slot maps a byte offset in the page to 1 + the index in ins of the
	// instruction starting there; 0: not decoded.
	slot [pageSize]uint16
}

// text is the page directory of one executable segment.
type text struct {
	seg   *mem.Segment
	pages []*codePage // nil: nothing decoded in that page
}

// noPage is what Machine.page points at when no page is current: every
// slot misses, so the loop needs no nil check.
var noPage codePage

// fetch returns the decoded instruction at pc, decoding it if this is its
// first execution since it was written, and makes its page the current
// one. The loop calls it when the current page does not have pc.
func (m *Machine) fetch(pc uint64) (*isa.Instr, error) {
	t := m.textAt(pc)
	if t == nil {
		_, err := m.Mem.FetchSlice(pc) // unmapped or not executable: say which
		return nil, err
	}
	off := pc - t.seg.Base
	pi, po := off>>pageShift, off&(pageSize-1)
	pg := t.pages[pi]
	if pg == nil {
		pg = new(codePage)
		t.pages[pi] = pg
	}
	m.page, m.pageBase = pg, pc-po
	if i := pg.slot[po]; i != 0 {
		return &pg.ins[i-1], nil
	}
	ins, err := isa.Decode(t.seg.Fetch(pc), pc)
	if err != nil {
		return nil, err
	}
	if len(pg.ins) == pageSize {
		// Live instructions start at distinct offsets, so a full table is
		// mostly orphans of invalidated ranges: start the page over.
		pg = new(codePage)
		t.pages[pi], m.page = pg, pg
	}
	pg.ins = append(pg.ins, ins)
	pg.slot[po] = uint16(len(pg.ins))
	m.decodes++
	return &pg.ins[len(pg.ins)-1], nil
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
					clear(pg.slot[from&(pageSize-1) : (stop-1)&(pageSize-1)+1])
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
