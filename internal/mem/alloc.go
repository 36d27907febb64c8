package mem

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoSpace reports heap exhaustion.
var ErrNoSpace = errors.New("mem: allocator out of space")

// ErrBadFree reports a Free of a pointer that was not allocated.
var ErrBadFree = errors.New("mem: free of unallocated pointer")

// Allocator is a first-fit free-list allocator over one segment. It backs
// the simulated heap (minc programs and library substrates allocate from
// it) and the rewriter's code buffer.
type Allocator struct {
	base, size uint64
	free       []span            // sorted by addr, coalesced
	live       map[uint64]uint64 // addr -> size
	align      uint64
	seg        *Segment // committed for every allocation; nil: unbound
}

type span struct{ addr, size uint64 }

// NewAllocator manages [base, base+size) with the given alignment
// (power of two, at least 1).
func NewAllocator(base, size, align uint64) *Allocator {
	if align == 0 {
		align = 1
	}
	return &Allocator{
		base:  base,
		size:  size,
		free:  []span{{base, size}},
		live:  make(map[uint64]uint64),
		align: align,
	}
}

// NewSegmentAllocator manages the whole of s and commits, in s, whatever it
// hands out: an allocated object lies inside the segment's window whether or
// not it has been written yet.
func NewSegmentAllocator(s *Segment, align uint64) *Allocator {
	a := NewAllocator(s.Base, s.Size, align)
	a.seg = s
	return a
}

// Alloc reserves n bytes and returns their address.
func (a *Allocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	n = (n + a.align - 1) &^ (a.align - 1)
	for i, f := range a.free {
		start := (f.addr + a.align - 1) &^ (a.align - 1)
		pad := start - f.addr
		if f.size < pad+n {
			continue
		}
		// Shrink or split the span.
		rest := span{start + n, f.size - pad - n}
		switch {
		case pad == 0 && rest.size == 0:
			a.free = append(a.free[:i], a.free[i+1:]...)
		case pad == 0:
			a.free[i] = rest
		case rest.size == 0:
			a.free[i] = span{f.addr, pad}
		default:
			a.free[i] = span{f.addr, pad}
			a.free = append(a.free, span{})
			copy(a.free[i+2:], a.free[i+1:])
			a.free[i+1] = rest
		}
		a.live[start] = n
		if a.seg != nil {
			a.seg.commit(start, start+n)
		}
		return start, nil
	}
	return 0, fmt.Errorf("%w: need %d bytes", ErrNoSpace, n)
}

// Free releases an allocation made by Alloc.
func (a *Allocator) Free(addr uint64) error {
	n, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: 0x%x", ErrBadFree, addr)
	}
	delete(a.live, addr)
	idx := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr >= addr })
	a.free = append(a.free, span{})
	copy(a.free[idx+1:], a.free[idx:])
	a.free[idx] = span{addr, n}
	a.coalesce(idx)
	return nil
}

func (a *Allocator) coalesce(idx int) {
	// Merge with successor, then predecessor.
	if idx+1 < len(a.free) && a.free[idx].addr+a.free[idx].size == a.free[idx+1].addr {
		a.free[idx].size += a.free[idx+1].size
		a.free = append(a.free[:idx+1], a.free[idx+2:]...)
	}
	if idx > 0 && a.free[idx-1].addr+a.free[idx-1].size == a.free[idx].addr {
		a.free[idx-1].size += a.free[idx].size
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	}
}

// LiveBytes returns the sum of live allocation sizes.
func (a *Allocator) LiveBytes() uint64 {
	var t uint64
	for _, n := range a.live {
		t += n
	}
	return t
}

// FreeBytes returns the sum of free span sizes.
func (a *Allocator) FreeBytes() uint64 {
	var t uint64
	for _, f := range a.free {
		t += f.size
	}
	return t
}

// Base returns the managed range start.
func (a *Allocator) Base() uint64 { return a.base }

// Size returns the managed range length.
func (a *Allocator) Size() uint64 { return a.size }
