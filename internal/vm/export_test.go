package vm

import (
	"fmt"
	"unsafe"

	"repro/internal/isa"
)

// Decodes reports how many instructions the machine has decoded so far;
// tests use it to tell a table hit from a re-decode.
func (m *Machine) Decodes() uint64 { return m.decodes }

// PageRecords reports, for the page of decoded code holding addr, how many
// executor records its array holds and how many of them are live.
func (m *Machine) PageRecords(addr uint64) (held, live int) {
	for _, t := range m.texts {
		if t.seg.Contains(addr) {
			if pg := t.pages[(addr-t.seg.Base)>>pageShift]; pg != nil {
				return len(pg.ins), pg.live
			}
		}
	}
	return 0, 0
}

// RecordSize is the size of one executor record.
const RecordSize = unsafe.Sizeof(xrec{})

// CheckRecords verifies every live executor record against the bytes it was
// decoded from and against its run: a run is live records of consecutive
// instructions, adjacent in the page's array, no longer than maxRun, with
// a control op only at its end, and each record's rest and restCost count
// to that end.
func (m *Machine) CheckRecords() error {
	for _, t := range m.texts {
		for pi, pg := range t.pages {
			if pg == nil {
				continue
			}
			live := 0
			for i := range pg.ins {
				x := &pg.ins[i]
				if int(pg.slot[x.off]) != i+1 {
					continue
				}
				live++
				pc := t.seg.Base + uint64(pi)<<pageShift + uint64(x.off)
				ins, err := isa.Decode(t.seg.Fetch(pc), pc)
				if err != nil {
					return fmt.Errorf("record at %#x: bytes no longer decode: %v", pc, err)
				}
				want := record(&ins, uint64(x.off))
				want.rest, want.restCost = x.rest, x.restCost
				if *x != want {
					return fmt.Errorf("record at %#x is stale: %+v, memory holds %+v", pc, *x, want)
				}
				if x.rest == 0 || x.rest > maxRun || i+int(x.rest) > len(pg.ins) {
					return fmt.Errorf("record at %#x: run of %d records", pc, x.rest)
				}
				if x.rest == 1 {
					if x.restCost != uint16(x.cost) {
						return fmt.Errorf("record at %#x: last of its run costs %d, restCost %d", pc, x.cost, x.restCost)
					}
					continue
				}
				y := &pg.ins[i+1]
				switch {
				case endsRun(x.op):
					return fmt.Errorf("record at %#x: %s inside a run", pc, x.op)
				case int(pg.slot[y.off]) != i+2:
					return fmt.Errorf("record at %#x: the next record of its run is an orphan", pc)
				case uint64(y.off) != uint64(x.off)+uint64(x.len):
					return fmt.Errorf("record at %#x: the next record of its run is at page offset %#x", pc, y.off)
				case y.rest != x.rest-1 || y.restCost != x.restCost-uint16(x.cost):
					return fmt.Errorf("record at %#x: rest %d/%d, next %d/%d", pc, x.rest, x.restCost, y.rest, y.restCost)
				}
			}
			if live != pg.live {
				return fmt.Errorf("page %d counts %d live records, holds %d", pi, pg.live, live)
			}
		}
	}
	return nil
}
