// Package cache models a multi-level set-associative data-cache hierarchy
// with LRU replacement. The VX64 emulator charges every memory access the
// latency this model reports, which is how the reproduction recovers the
// paper's performance effects ("the space traversed for the 2 matrices is
// 4 MB, fitting into L3") without real hardware.
package cache

import "fmt"

// Level configures one cache level.
type Level struct {
	Name     string
	Size     int // bytes
	LineSize int // bytes, power of two
	Assoc    int // ways
	Latency  int // cycles charged on a hit at this level
}

// Stats counts accesses at one level.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // lines displaced from a full set on fill
}

// Accesses returns total accesses at the level.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the fraction of accesses that hit (0 if no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses())
}

// level is one cache level. Its sets live in one flat array: set i owns
// tags[i*Assoc : (i+1)*Assoc], of which the first used[i] entries are
// valid, most recently used first.
type level struct {
	cfg      Level
	tags     []uint64
	used     []int32
	setShift uint // log2(LineSize)
	setMask  uint64
	stats    Stats
}

// Hierarchy is a stack of inclusive cache levels in front of main memory.
type Hierarchy struct {
	levels     []*level
	memLatency int
	// mru is the line the last access touched, which that access left in
	// the most-recently-used way of its L1 set: touching it again is an L1
	// hit that reorders nothing, so it needs no set walk. Valid while
	// mruOK; Reset and Flush clear it.
	mru   uint64
	mruOK bool
}

// Default returns a hierarchy modeled after the paper's evaluation machine
// (Intel i7-3740QM): 32 KiB 8-way L1D, 256 KiB 8-way L2, 6 MiB 12-way L3,
// 64-byte lines.
func Default() *Hierarchy {
	h, err := New([]Level{
		{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8, Latency: 4},
		{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8, Latency: 12},
		{Name: "L3", Size: 6 << 20, LineSize: 64, Assoc: 12, Latency: 36},
	}, 160)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return h
}

// New builds a hierarchy from level configs (ordered L1 first) and the
// latency of main memory.
func New(cfgs []Level, memLatency int) (*Hierarchy, error) {
	h := &Hierarchy{memLatency: memLatency}
	for _, c := range cfgs {
		if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
			return nil, fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
		}
		if c.Assoc <= 0 || c.Size <= 0 {
			return nil, fmt.Errorf("cache %s: bad geometry", c.Name)
		}
		nsets := c.Size / (c.LineSize * c.Assoc)
		if nsets == 0 || nsets&(nsets-1) != 0 {
			return nil, fmt.Errorf("cache %s: %d sets (size/line/assoc must give a power of two)", c.Name, nsets)
		}
		lv := &level{
			cfg:     c,
			tags:    make([]uint64, nsets*c.Assoc),
			used:    make([]int32, nsets),
			setMask: uint64(nsets - 1),
		}
		for s := c.LineSize; s > 1; s >>= 1 {
			lv.setShift++
		}
		h.levels = append(h.levels, lv)
	}
	return h, nil
}

// Access simulates an access of size bytes at addr and returns the latency
// in cycles. Accesses spanning multiple lines charge each line.
func (h *Hierarchy) Access(addr uint64, size int) int {
	if len(h.levels) == 0 || size <= 0 {
		// size == 0 must not reach the line walk: addr+size-1 would wrap
		// and the loop would visit (nearly) every line in the 64-bit space.
		return 0
	}
	line := uint64(h.levels[0].cfg.LineSize)
	first := addr &^ (line - 1)
	last := (addr + uint64(size) - 1) &^ (line - 1)
	lat := 0
	for a := first; ; a += line {
		lat += h.accessLine(a)
		if a == last {
			break
		}
	}
	return lat
}

func (h *Hierarchy) accessLine(addr uint64) int {
	if h.mruOK && addr == h.mru {
		l1 := h.levels[0]
		l1.stats.Hits++
		return l1.cfg.Latency
	}
	h.mru, h.mruOK = addr, true
	lat := 0
	hitLevel := len(h.levels) // == miss everywhere
	for i, lv := range h.levels {
		if lv.lookup(addr) {
			lv.stats.Hits++
			hitLevel = i
			lat += lv.cfg.Latency
			break
		}
		lv.stats.Misses++
		lat += lv.cfg.Latency
	}
	if hitLevel == len(h.levels) {
		lat += h.memLatency
	}
	// Fill all levels above the hit (inclusive hierarchy).
	for i := 0; i < hitLevel && i < len(h.levels); i++ {
		h.levels[i].fill(addr)
	}
	return lat
}

// set returns the valid ways of the set addr maps to, its index, and the
// line's tag.
func (lv *level) set(addr uint64) (ways []uint64, idx int, tag uint64) {
	tag = addr >> lv.setShift
	idx = int(tag & lv.setMask)
	return lv.tags[idx*lv.cfg.Assoc:][:lv.used[idx]], idx, tag
}

func (lv *level) lookup(addr uint64) bool {
	ways, _, tag := lv.set(addr)
	for i, t := range ways {
		if t == tag {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	return false
}

func (lv *level) fill(addr uint64) {
	ways, idx, tag := lv.set(addr)
	if len(ways) < lv.cfg.Assoc {
		lv.used[idx]++
		ways = ways[:len(ways)+1]
	} else {
		lv.stats.Evictions++ // LRU tag at the tail is overwritten below
	}
	copy(ways[1:], ways)
	ways[0] = tag
}

// Stats returns per-level statistics keyed by level name, in order.
func (h *Hierarchy) Stats() []struct {
	Name string
	Stats
} {
	out := make([]struct {
		Name string
		Stats
	}, len(h.levels))
	for i, lv := range h.levels {
		out[i].Name = lv.cfg.Name
		out[i].Stats = lv.stats
	}
	return out
}

// Reset clears contents and statistics.
func (h *Hierarchy) Reset() {
	h.Flush()
	for _, lv := range h.levels {
		lv.stats = Stats{}
	}
}

// Flush clears cache contents but keeps statistics.
func (h *Hierarchy) Flush() {
	h.mruOK = false
	for _, lv := range h.levels {
		clear(lv.used)
	}
}
