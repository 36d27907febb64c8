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

// Segment is a contiguous mapped region.
type Segment struct {
	Name string
	Base uint64
	Data []byte
	Perm Perm
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + uint64(len(s.Data)) }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint64) bool { return addr >= s.Base && addr < s.End() }

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
// existing segment or wraps the address space.
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
	s := &Segment{Name: name, Base: base, Data: make([]byte, size), Perm: perm}
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
		if addr-s.Base < uint64(len(s.Data)) {
			return s
		}
	}
	return nil
}

// Slice returns a view of n bytes at addr, verifying perm. The returned
// slice aliases segment storage.
func (m *Memory) Slice(addr uint64, n int, perm Perm) ([]byte, error) {
	s := m.Find(addr)
	if s == nil {
		return nil, fmt.Errorf("%w: 0x%x", ErrUnmapped, addr)
	}
	if s.Perm&perm != perm {
		return nil, fmt.Errorf("%w: %v access to %q (0x%x, %v)", ErrPerm, perm, s.Name, addr, s.Perm)
	}
	off := addr - s.Base
	if off+uint64(n) > uint64(len(s.Data)) {
		return nil, fmt.Errorf("%w: 0x%x+%d in %q", ErrOutOfRange, addr, n, s.Name)
	}
	return s.Data[off : off+uint64(n)], nil
}

// ReadN reads an n-byte little-endian unsigned integer (n in 1..8).
func (m *Memory) ReadN(addr uint64, n int) (uint64, error) {
	b, err := m.Slice(addr, n, PermRead)
	if err != nil {
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
	b, err := m.Slice(addr, 8, PermRead)
	if err != nil {
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
// segment; used by the instruction fetcher and the rewriter's decoder.
func (m *Memory) FetchSlice(addr uint64) ([]byte, error) {
	s := m.Find(addr)
	if s == nil {
		return nil, fmt.Errorf("%w: fetch 0x%x", ErrUnmapped, addr)
	}
	if s.Perm&PermExec == 0 {
		return nil, fmt.Errorf("%w: fetch from non-executable %q (0x%x)", ErrPerm, s.Name, addr)
	}
	return s.Data[addr-s.Base:], nil
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
	src, err := m.Slice(addr, n, PermRead)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, src)
	return out, nil
}
