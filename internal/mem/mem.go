// Package mem implements the simulated 64-bit address space that the VX64
// emulator, the BREW rewriter and the PGAS substrate operate on. It replaces
// the process address space the paper's prototype patches directly (see
// DESIGN.md, substitution table).
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Perm is a segment permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access faults.
var (
	ErrUnmapped   = errors.New("mem: unmapped address")
	ErrPerm       = errors.New("mem: permission denied")
	ErrOverlap    = errors.New("mem: segment overlap")
	ErrWrap       = errors.New("mem: address range wraps")
	ErrOutOfRange = errors.New("mem: access crosses segment end")
)

// granule is the unit of commitment: a window starts and ends on a multiple
// of it (clipped to the segment), and a segment no larger than one granule
// is committed whole when it is mapped.
const granule = 64 << 10

// Segment is a contiguous mapped region [Base, Base+Size). Only part of it
// is backed by storage: Data is the committed window [Lo, Lo+len(Data)),
// which lies inside the segment and only ever grows. Every byte outside the
// window is zero and stays zero until something writes it.
//
// Who commits: a write outside the window (WriteN, Write64, WriteBytes, a
// Slice taken with PermWrite — and through them the emulator's stores) and
// an Allocator bound to the segment, for whatever it hands out. The window
// grows towards the end that was touched, to a granule boundary and by at
// least its own length, so the copying a growing heap or a deepening stack
// pays stays proportional to what it ends up using. Reads never commit: a
// read outside the window yields zeros and changes nothing, which is what
// keeps concurrent readers safe.
//
// Growing the window replaces Data, so a view of it (Slice, FetchSlice,
// Data itself) taken before a write that commits must not be written
// through, or read for bytes written, afterwards. Holders inside this
// repository: the emulator, which reads Lo and Data afresh on every
// access, and the oracle, which takes its views between runs.
type Segment struct {
	Name string
	Base uint64
	Size uint64
	Lo   uint64 // address of Data[0]
	Data []byte
	Perm Perm
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + s.Size }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint64) bool { return addr-s.Base < s.Size }

// commit grows the window to cover [lo, hi), which the caller has checked
// lies inside the segment.
func (s *Segment) commit(lo, hi uint64) {
	n := uint64(len(s.Data))
	wlo, whi := s.Lo, s.Lo+n
	if n == 0 {
		wlo, whi = lo, lo // the first window forms around the first touch
	}
	if lo >= hi || (lo >= wlo && hi <= whi) {
		return
	}
	// Towards a touched end: to the granule boundary beyond the touch, and
	// by at least the window's own length.
	nlo, nhi := wlo, whi
	if lo < wlo || n == 0 {
		nlo = max(s.Base, min(lo, wlo-min(n, wlo))&^(granule-1))
	}
	if hi > whi {
		nhi = min(s.End(), (max(hi, whi+n)+granule-1)&^(granule-1))
	}
	data := make([]byte, nhi-nlo)
	if n > 0 {
		copy(data[wlo-nlo:], s.Data)
	}
	s.Lo, s.Data = nlo, data
}

// zeroFilled returns a fresh copy of [addr, addr+n), zeros outside the
// window.
func (s *Segment) zeroFilled(addr, n uint64) []byte {
	out := make([]byte, n)
	lo, hi := max(addr, s.Lo), min(addr+n, s.Lo+uint64(len(s.Data)))
	if lo < hi {
		copy(out[lo-addr:], s.Data[lo-s.Lo:hi-s.Lo])
	}
	return out
}

// fetchAhead is how many bytes past addr Fetch guarantees (segment end
// permitting): more than the longest instruction.
const fetchAhead = 16

// Fetch returns the segment's bytes from addr, which must lie inside it, to
// the end of the committed window, for a decoder to read an instruction
// from. When the window ends within fetchAhead bytes of addr but the
// segment goes on, the bytes beyond — zeros — are supplied in a copy.
func (s *Segment) Fetch(addr uint64) []byte {
	off, n := addr-s.Lo, uint64(len(s.Data))
	if off < n && (n-off >= fetchAhead || s.Lo+n == s.End()) {
		return s.Data[off:]
	}
	return s.zeroFilled(addr, min(fetchAhead, s.End()-addr))
}

// Memory is a sparse, segmented address space with little-endian accessors.
// The zero value is an empty address space ready for Map calls.
//
// Concurrency: reads may run concurrently (e.g. several rewriter traces
// over the same code) — a lookup changes no state. Mapping segments or
// writing memory concurrently with anything else requires external
// synchronization.
type Memory struct {
	segs []*Segment // sorted by Base
}

// Map creates a segment of the given size. It fails if the range overlaps an
// existing segment or wraps the address space. A segment of at most one
// granule is committed whole; a larger one starts with an empty window.
func (m *Memory) Map(name string, base, size uint64, perm Perm) (*Segment, error) {
	if size == 0 || base+size < base || base+size > math.MaxInt64 {
		return nil, fmt.Errorf("%w: [0x%x, 0x%x)", ErrWrap, base, base+size)
	}
	idx := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base >= base })
	if idx < len(m.segs) && m.segs[idx].Base < base+size {
		return nil, fmt.Errorf("%w: %q at 0x%x collides with %q", ErrOverlap, name, base, m.segs[idx].Name)
	}
	if idx > 0 && m.segs[idx-1].End() > base {
		return nil, fmt.Errorf("%w: %q at 0x%x collides with %q", ErrOverlap, name, base, m.segs[idx-1].Name)
	}
	s := &Segment{Name: name, Base: base, Size: size, Lo: base, Perm: perm}
	if size <= granule {
		s.commit(base, base+size)
	}
	m.segs = append(m.segs, nil)
	copy(m.segs[idx+1:], m.segs[idx:])
	m.segs[idx] = s
	return s, nil
}

// Segments returns the mapped segments in address order.
func (m *Memory) Segments() []*Segment { return m.segs }

// Find returns the segment containing addr, or nil.
//
// An address space has a handful of segments, so this is a scan; a caller
// with locality (the emulator) remembers the segment it was handed.
func (m *Memory) Find(addr uint64) *Segment {
	for _, s := range m.segs {
		// One compare: an addr below Base wraps to a huge offset.
		if addr-s.Base < s.Size {
			return s
		}
	}
	return nil
}

// committed returns the n bytes at addr when the segment holding addr
// permits perm and has all of them in its window — the common case — and
// nil otherwise. Like every read it looks at no segment but that one, whose
// bounds never change: a reader does not see another segment's window move.
func (m *Memory) committed(addr uint64, n int, perm Perm) []byte {
	if s := m.Find(addr); s != nil && s.Perm&perm == perm {
		// An addr below Lo wraps to a huge offset.
		if off, end := addr-s.Lo, addr-s.Lo+uint64(n); off < uint64(len(s.Data)) && end <= uint64(len(s.Data)) {
			return s.Data[off:end]
		}
	}
	return nil
}

// locate finds the segment holding [addr, addr+n) and verifies perm.
func (m *Memory) locate(addr uint64, n int, perm Perm) (*Segment, error) {
	s := m.Find(addr)
	if s == nil {
		return nil, fmt.Errorf("%w: 0x%x", ErrUnmapped, addr)
	}
	if s.Perm&perm != perm {
		return nil, fmt.Errorf("%w: %v access to %q (0x%x, %v)", ErrPerm, perm, s.Name, addr, s.Perm)
	}
	if addr-s.Base+uint64(n) > s.Size {
		return nil, fmt.Errorf("%w: 0x%x+%d in %q", ErrOutOfRange, addr, n, s.Name)
	}
	return s, nil
}

// Slice returns a view of n bytes at addr, verifying perm. A view taken
// with PermWrite commits the range and aliases segment storage until the
// segment's window next grows (see Segment). A view taken without it may
// alias storage or be a copy — where the range leaves the window, a copy
// with zeros there — and must not be written through.
func (m *Memory) Slice(addr uint64, n int, perm Perm) ([]byte, error) {
	if b := m.committed(addr, n, perm); b != nil {
		return b, nil
	}
	s, err := m.locate(addr, n, perm)
	if err != nil {
		return nil, err
	}
	if perm&PermWrite == 0 {
		return s.zeroFilled(addr, uint64(n)), nil
	}
	s.commit(addr, addr+uint64(n))
	return s.Data[addr-s.Lo:][:n], nil
}

// readable returns the n bytes at addr for reading, nil when all of them
// lie outside the window and so are zero; a range straddling the window's
// edge is copied.
func (m *Memory) readable(addr uint64, n int) ([]byte, error) {
	if b := m.committed(addr, n, PermRead); b != nil {
		return b, nil
	}
	s, err := m.locate(addr, n, PermRead)
	if err != nil {
		return nil, err
	}
	if addr+uint64(n) <= s.Lo || addr >= s.Lo+uint64(len(s.Data)) {
		return nil, nil
	}
	return s.zeroFilled(addr, uint64(n)), nil
}

// ReadN reads an n-byte little-endian unsigned integer (n in 1..8).
func (m *Memory) ReadN(addr uint64, n int) (uint64, error) {
	b, err := m.readable(addr, n)
	if err != nil || b == nil {
		return 0, err
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteN writes an n-byte little-endian integer (n in 1..8).
func (m *Memory) WriteN(addr uint64, v uint64, n int) error {
	b, err := m.Slice(addr, n, PermWrite)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		b[i] = byte(v)
		v >>= 8
	}
	return nil
}

// Read64 reads a 64-bit value.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	b, err := m.readable(addr, 8)
	if err != nil || b == nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Write64 writes a 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) error {
	b, err := m.Slice(addr, 8, PermWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// Read8 reads a byte.
func (m *Memory) Read8(addr uint64) (byte, error) {
	v, err := m.ReadN(addr, 1)
	return byte(v), err
}

// Write8 writes a byte.
func (m *Memory) Write8(addr uint64, v byte) error { return m.WriteN(addr, uint64(v), 1) }

// ReadF64 reads a float64.
func (m *Memory) ReadF64(addr uint64) (float64, error) {
	v, err := m.Read64(addr)
	return math.Float64frombits(v), err
}

// WriteF64 writes a float64.
func (m *Memory) WriteF64(addr uint64, f float64) error {
	return m.Write64(addr, math.Float64bits(f))
}

// FetchSlice returns executable bytes from addr to the end of the containing
// segment's committed window (see Segment.Fetch); used by the instruction
// fetcher and the rewriter's decoder.
func (m *Memory) FetchSlice(addr uint64) ([]byte, error) {
	s := m.Find(addr)
	if s == nil {
		return nil, fmt.Errorf("%w: fetch 0x%x", ErrUnmapped, addr)
	}
	if s.Perm&PermExec == 0 {
		return nil, fmt.Errorf("%w: fetch from non-executable %q (0x%x)", ErrPerm, s.Name, addr)
	}
	return s.Fetch(addr), nil
}

// WriteBytes copies b into memory at addr (requires write permission).
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	dst, err := m.Slice(addr, len(b), PermWrite)
	if err != nil {
		return err
	}
	copy(dst, b)
	return nil
}

// ReadBytes copies n bytes from addr.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	s, err := m.locate(addr, n, PermRead)
	if err != nil {
		return nil, err
	}
	return s.zeroFilled(addr, uint64(n)), nil
}
