package vm

import "unsafe"

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
