package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// A segment larger than one granule, as the machine maps them.
const (
	bigBase = 0x0100_0000
	bigSize = 8 << 20
)

func newBigMem(t *testing.T, perm Perm) (*Memory, *Segment) {
	t.Helper()
	m := &Memory{}
	s, err := m.Map("big", bigBase, bigSize, perm)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// checkWindow asserts the invariants every window keeps.
func checkWindow(t *testing.T, s *Segment) {
	t.Helper()
	lo, hi := s.Lo, s.Lo+uint64(len(s.Data))
	if lo < s.Base || hi > s.End() {
		t.Fatalf("window [%#x, %#x) leaves segment [%#x, %#x)", lo, hi, s.Base, s.End())
	}
	if len(s.Data) > 0 && (lo%granule != 0 || hi%granule != 0) {
		t.Fatalf("window [%#x, %#x) is not granule-aligned", lo, hi)
	}
}

func TestSmallSegmentCommittedWhole(t *testing.T) {
	m := newTestMem(t)
	for _, s := range m.Segments() {
		if s.Lo != s.Base || uint64(len(s.Data)) != s.Size {
			t.Errorf("%s: window [%#x, +%d), want the whole segment", s.Name, s.Lo, len(s.Data))
		}
	}
}

// TestWriteCommits: a large segment starts with nothing committed; the first
// write forms a window around itself; a write far above and one far below
// extend it; everything written reads back, everything in between and
// everything outside reads zero.
func TestWriteCommits(t *testing.T) {
	m, s := newBigMem(t, PermRW)
	if len(s.Data) != 0 {
		t.Fatalf("fresh %d MB segment has %d bytes committed", bigSize>>20, len(s.Data))
	}
	const mid, above, below = bigBase + 4<<20 + 24, bigBase + 7<<20 + 8, bigBase + 1<<20 + 16
	if err := m.Write64(mid, 0x1111); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, s)
	if len(s.Data) != granule {
		t.Errorf("first write committed %d bytes, want one granule", len(s.Data))
	}
	first := len(s.Data)

	if err := m.Write64(above, 0x2222); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, s)
	if err := m.Write8(below, 0x33); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, s)
	if s.Lo > below || s.Lo+uint64(len(s.Data)) < above+8 || len(s.Data) <= first {
		t.Fatalf("window [%#x, +%d) does not span the three writes", s.Lo, len(s.Data))
	}

	for _, c := range []struct {
		addr uint64
		want uint64
	}{
		{mid, 0x1111}, {above, 0x2222}, {below, 0x33},
		{mid + 8, 0}, {mid - 8, 0}, // beside a write
		{bigBase + 2<<20, 0}, {bigBase + 6<<20, 0}, // in between, committed
		{bigBase, 0}, {bigBase + bigSize - 8, 0}, // outside the window
	} {
		if got, err := m.Read64(c.addr); err != nil || got != c.want {
			t.Errorf("Read64(%#x) = %#x, %v; want %#x", c.addr, got, err, c.want)
		}
	}
	b, err := m.ReadBytes(bigBase, bigSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := bigSize - bytes.Count(b, []byte{0}); n != 5 { // 0x1111, 0x2222, 0x33
		t.Errorf("%d non-zero bytes in the segment, want 5", n)
	}
}

// TestWindowGrowsGeometrically: touching successive granules upward (a heap)
// or downward (a stack) reallocates O(log n) times, not once per granule.
func TestWindowGrowsGeometrically(t *testing.T) {
	for _, down := range []bool{false, true} {
		m, s := newBigMem(t, PermRW)
		grown, last := 0, 0
		for i := uint64(0); i < bigSize/granule; i++ {
			addr := bigBase + i*granule
			if down {
				addr = bigBase + bigSize - 8 - i*granule
			}
			if err := m.Write64(addr, i+1); err != nil {
				t.Fatal(err)
			}
			checkWindow(t, s)
			if len(s.Data) != last {
				grown, last = grown+1, len(s.Data)
			}
		}
		if uint64(len(s.Data)) != bigSize {
			t.Errorf("down=%v: %d bytes committed after touching every granule", down, len(s.Data))
		}
		if grown > 10 {
			t.Errorf("down=%v: window reallocated %d times for %d granules", down, grown, bigSize/granule)
		}
		for i := uint64(0); i < bigSize/granule; i++ {
			addr := bigBase + i*granule
			if down {
				addr = bigBase + bigSize - 8 - i*granule
			}
			if got, _ := m.Read64(addr); got != i+1 {
				t.Fatalf("down=%v: Read64(%#x) = %d after growth, want %d", down, addr, got, i+1)
			}
		}
	}
}

// TestReadsNeverCommit: every reading accessor, aimed outside the window,
// yields zeros and leaves the window as it was — also where a read
// straddles the window's edge.
func TestReadsNeverCommit(t *testing.T) {
	m, s := newBigMem(t, PermRWX)
	const at = bigBase + 2<<20
	if err := m.WriteBytes(at, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	lo, n := s.Lo, len(s.Data)
	edge := s.Lo + uint64(n) // first address past the window
	if err := m.WriteBytes(edge-4, []byte{0xA, 0xB, 0xC, 0xD}); err != nil {
		t.Fatal(err)
	}
	far := uint64(bigBase + 6<<20)

	if v, err := m.Read64(far); err != nil || v != 0 {
		t.Errorf("Read64 outside = %#x, %v", v, err)
	}
	if v, err := m.ReadN(far, 3); err != nil || v != 0 {
		t.Errorf("ReadN outside = %#x, %v", v, err)
	}
	if v, err := m.Read64(edge - 4); err != nil || v != 0x0D0C0B0A {
		t.Errorf("Read64 across the edge = %#x, %v", v, err)
	}
	if b, err := m.ReadBytes(edge-2, 6); err != nil || !bytes.Equal(b, []byte{0xC, 0xD, 0, 0, 0, 0}) {
		t.Errorf("ReadBytes across the edge = %v, %v", b, err)
	}
	if b, err := m.Slice(far, 64, PermRead); err != nil || !bytes.Equal(b, make([]byte, 64)) {
		t.Errorf("read Slice outside = %v, %v", b, err)
	}
	if b, err := m.FetchSlice(far); err != nil || len(b) < fetchAhead || !bytes.Equal(b, make([]byte, len(b))) {
		t.Errorf("FetchSlice outside = %v, %v", b, err)
	}
	// Two bytes before the edge: the rest of an instruction lies outside.
	if b, err := m.FetchSlice(edge - 2); err != nil || !bytes.Equal(b, append([]byte{0xC, 0xD}, make([]byte, fetchAhead-2)...)) {
		t.Errorf("FetchSlice near the edge = %v, %v", b, err)
	}
	if b, err := m.FetchSlice(at); err != nil || b[0] != 1 || &b[0] != &s.Data[at-s.Lo] {
		t.Errorf("FetchSlice inside does not alias the window: %v", err)
	}
	if s.Lo != lo || len(s.Data) != n {
		t.Errorf("reads moved the window: [%#x, +%d) -> [%#x, +%d)", lo, n, s.Lo, len(s.Data))
	}
}

// TestConcurrentReaders is the Memory contract under -race: any number of
// goroutines may read, inside and outside the windows, while none writes.
func TestConcurrentReaders(t *testing.T) {
	m, s := newBigMem(t, PermRWX)
	const marked = bigBase + 1<<20
	if err := m.Write64(marked, 42); err != nil {
		t.Fatal(err)
	}
	n := len(s.Data)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// A walk over the whole segment that keeps returning to
				// the one written word.
				addr := uint64(bigBase+(i*4099+g*65537)%(bigSize-16)) &^ 7
				if i%16 == 0 {
					addr = marked
				}
				want := uint64(0)
				if addr == marked {
					want = 42
				}
				if v, err := m.Read64(addr); err != nil || v != want {
					t.Errorf("Read64(%#x) = %d, %v; want %d", addr, v, err, want)
					return
				}
				if _, err := m.FetchSlice(addr); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(s.Data) != n {
		t.Errorf("readers changed the window: %d -> %d bytes", n, len(s.Data))
	}
}

// TestFaultsIgnoreTheWindow: what is a fault does not depend on what is
// committed, and a refused access commits nothing.
func TestFaultsIgnoreTheWindow(t *testing.T) {
	m, s := newBigMem(t, PermRX)
	if err := m.Write64(bigBase+64, 1); !errors.Is(err, ErrPerm) {
		t.Errorf("write to r-x: %v", err)
	}
	if _, err := m.Slice(bigBase+64, 8, PermWrite); !errors.Is(err, ErrPerm) {
		t.Errorf("write view of r-x: %v", err)
	}
	if _, err := m.Read64(bigBase + bigSize - 4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read across the segment end: %v", err)
	}
	if _, err := m.Read64(bigBase + bigSize); !errors.Is(err, ErrUnmapped) {
		t.Errorf("read past the segment: %v", err)
	}
	if len(s.Data) != 0 {
		t.Errorf("refused accesses committed %d bytes", len(s.Data))
	}
	m2, s2 := newBigMem(t, PermRW)
	if err := m2.WriteBytes(bigBase+bigSize-4, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write across the segment end: %v", err)
	}
	if _, err := m2.FetchSlice(bigBase); !errors.Is(err, ErrPerm) {
		t.Errorf("fetch from rw-: %v", err)
	}
	if len(s2.Data) != 0 {
		t.Errorf("refused accesses committed %d bytes", len(s2.Data))
	}
}

// TestViewAcrossGrowth documents the one hazard the window adds: growing it
// replaces Data, so a write view taken before no longer reaches the
// segment. The bytes written through it before the growth are kept.
func TestViewAcrossGrowth(t *testing.T) {
	m, s := newBigMem(t, PermRW)
	view, err := m.Slice(bigBase+1<<20, 8, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	view[0] = 0x5A
	if err := m.Write64(bigBase+5<<20, 1); err != nil { // grows the window
		t.Fatal(err)
	}
	if &view[0] == &s.Data[bigBase+1<<20-s.Lo] {
		t.Fatal("the window did not move: the test proves nothing")
	}
	view[1] = 0x77 // lost: the view is of the old backing
	if got, _ := m.Read64(bigBase + 1<<20); got != 0x5A {
		t.Errorf("after growth the segment reads %#x, want 0x5a", got)
	}
}

// TestSegmentAllocatorCommits: a bound allocator commits what it hands out,
// so an allocated object is inside the window before anything writes it.
func TestSegmentAllocatorCommits(t *testing.T) {
	_, s := newBigMem(t, PermRW)
	a := NewSegmentAllocator(s, 16)
	if a.Base() != bigBase || a.Size() != bigSize {
		t.Fatalf("allocator manages [%#x, +%#x)", a.Base(), a.Size())
	}
	for _, n := range []uint64{24, 3 << 20, 100} {
		p, err := a.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if p < s.Lo || p+n > s.Lo+uint64(len(s.Data)) {
			t.Errorf("Alloc(%d) = %#x lies outside the window [%#x, +%d)", n, p, s.Lo, len(s.Data))
		}
		checkWindow(t, s)
	}
	// An unbound allocator over the same range commits nothing.
	_, s2 := newBigMem(t, PermRW)
	if _, err := NewAllocator(bigBase, bigSize, 16).Alloc(4096); err != nil || len(s2.Data) != 0 {
		t.Errorf("unbound Alloc: %v, %d bytes committed", err, len(s2.Data))
	}
}
