package oracle

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/vm"
)

// twins returns a harness over two fresh machines, for the memory checks
// alone.
func twins() *harness {
	return &harness{
		orig: &machState{inst: &Instance{M: vm.MustNew()}},
		rewr: &machState{inst: &Instance{M: vm.MustNew()}},
	}
}

// scanDifference is compareMemory as it was when a segment was one array:
// the lowest differing address of the named segment, found byte by byte
// over everything mapped.
func scanDifference(t *testing.T, h *harness, base uint64, size int) (uint64, bool) {
	t.Helper()
	a, err := h.orig.inst.M.Mem.ReadBytes(base, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.rewr.inst.M.Mem.ReadBytes(base, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			return base + uint64(i), true
		}
	}
	return 0, false
}

// TestCompareMemoryUnequalWindows seeds mismatches between two machines
// whose data segments have committed different windows and checks that the
// reported address is the one the full byte-by-byte scan finds.
func TestCompareMemoryUnequalWindows(t *testing.T) {
	type write struct {
		rewr bool // which machine
		addr uint64
		val  uint64
	}
	const (
		low  = vm.DataBase + 1<<20 + 24
		mid  = vm.DataBase + 3<<20 + 8
		high = vm.DataBase + 6<<20 + 40
	)
	for _, c := range []struct {
		name   string
		writes []write
	}{
		{"equal content, one side committed further", []write{
			{false, low, 7}, {true, low, 7}, {true, high, 0}}},
		{"windows apart, equal (all zero)", []write{
			{false, low, 0}, {true, high, 0}}},
		{"mismatch inside both windows", []write{
			{false, low, 1}, {true, low, 1}, {false, mid, 5}, {true, mid, 6}, {false, high, 9}, {true, high, 9}}},
		{"non-zero byte outside the other window", []write{
			{false, low, 1}, {true, low, 1}, {true, high, 0x4200}}},
		{"non-zero byte below the other window", []write{
			{true, mid, 3}, {false, mid, 3}, {false, low, 0xFF00000000}}},
		{"lowest of several", []write{
			{false, high, 1}, {true, high, 2}, {true, mid, 8}, {false, low + 16, 0}}},
		{"windows apart, both non-zero", []write{
			{false, low, 0x10}, {true, high, 0x20}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := twins()
			for _, w := range c.writes {
				m := h.orig.inst.M
				if w.rewr {
					m = h.rewr.inst.M
				}
				if err := m.Mem.Write64(w.addr, w.val); err != nil {
					t.Fatal(err)
				}
			}
			want, differ := scanDifference(t, h, vm.DataBase, vm.DataSize)
			d := h.compareMemory()
			switch {
			case !differ && d != nil:
				t.Errorf("equal memories reported as %s", d.Detail)
			case differ && d == nil:
				t.Errorf("difference at %#x not reported", want)
			case differ && !strings.Contains(d.Detail, fmt.Sprintf(`in "data" at 0x%x:`, want)):
				t.Errorf("reported %q, the scan finds %#x", d.Detail, want)
			}
		})
	}
}

// TestRollbackAcrossWindowGrowth: a trial that stores far outside what was
// committed when the snapshot was taken grows the windows; rolling it back
// must restore the snapshot's bytes and zero the ones committed since.
func TestRollbackAcrossWindowGrowth(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
scribble:
    store [r1], r3
    store [r2], r3
    storeb [r1+11], r3
    push r3
    pop  r4
    ret
.data
cell: .quad 0x1111
`)
	if err != nil {
		t.Fatal(err)
	}
	cell := im.Labels["cell"]
	ms := &machState{inst: &Instance{M: m}, snap: snapshot(m)}
	h := &harness{stepLimit: 1 << 20}
	// The segments the guest below stores to, in full.
	touched := func(s *mem.Segment) bool { return s.Name == "data" || s.Name == "stack" }
	before := map[string][]byte{}
	for _, s := range m.Mem.Segments() {
		if !touched(s) {
			continue
		}
		b, err := m.Mem.ReadBytes(s.Base, int(s.Size))
		if err != nil {
			t.Fatal(err)
		}
		before[s.Name] = b
	}
	far := uint64(vm.DataBase + 5<<20)
	if o := h.runOne(ms, im.MustEntry("scribble"), []uint64{cell, far, 0xABCDEF}, nil); o.fault != nil {
		t.Fatal(o.fault)
	}
	if v, _ := m.Mem.Read64(far); v != 0xABCDEF {
		t.Fatalf("the run did not store: %#x", v)
	}
	ms.rollback()
	for _, s := range m.Mem.Segments() {
		if !touched(s) {
			continue
		}
		got, err := m.Mem.ReadBytes(s.Base, int(s.Size))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != before[s.Name][i] {
				t.Fatalf("%s: byte at %#x is %#x after rollback, was %#x", s.Name, s.Base+uint64(i), got[i], before[s.Name][i])
			}
		}
	}
}
