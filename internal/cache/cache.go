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
	// l1 is levels[0], held in place rather than behind a pointer: nearly
	// every access ends in it.
	l1         level
	levels     []*level
	memLatency int
	// mru is the line the last access touched, which that access left in
	// the most-recently-used way of its L1 set: touching it again is an L1
	// hit that reorders nothing, so it needs no set walk. mruSpan is L1's
	// line size, or 0 while there is no such line (New, Reset, Flush).
	mru, mruSpan uint64
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
		lv := &h.l1
		if len(h.levels) > 0 {
			lv = new(level)
		}
		*lv = level{
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
// in cycles. Accesses spanning multiple lines charge each line. An access
// within the line the last one touched (about two in three, in the paper's
// kernels) is an L1 hit and done here; the rest go to access.
func (h *Hierarchy) Access(addr uint64, size int) int {
	if off := addr - h.mru; off < h.mruSpan && uint64(size)-1 < h.mruSpan-off {
		h.l1.stats.Hits++
		return h.l1.cfg.Latency
	}
	return h.access(addr, size)
}

// access is Access past the last line. L1 is probed once per line: a hit
// there, nearly every access, reorders its set, counts and is done; a miss
// goes on to the levels below.
func (h *Hierarchy) access(addr uint64, size int) int {
	if len(h.levels) == 0 || size <= 0 {
		// size == 0 must not reach the line walk: addr+size-1 would wrap
		// and the loop would visit (nearly) every line in the 64-bit space.
		return 0
	}
	l1 := &h.l1
	mask := uint64(l1.cfg.LineSize - 1)
	a, last := addr&^mask, (addr+uint64(size)-1)&^mask
	lat := 0
	for {
		if a-h.mru < h.mruSpan || l1.lookup(a) {
			l1.stats.Hits++
			lat += l1.cfg.Latency
		} else {
			lat += h.missL1(a)
		}
		h.mru, h.mruSpan = a, mask+1
		if a == last {
			return lat
		}
		a += mask + 1
	}
}

// missL1 charges a line L1 does not hold: L1's latency and miss, the levels
// below down to the first that hits (or memory), and fills every level
// above that one (inclusive hierarchy).
func (h *Hierarchy) missL1(addr uint64) int {
	h.l1.stats.Misses++
	lat := h.l1.cfg.Latency
	hitLevel := len(h.levels) // == miss everywhere
	for i := 1; i < len(h.levels); i++ {
		lv := h.levels[i]
		lat += lv.cfg.Latency
		if lv.lookup(addr) {
			lv.stats.Hits++
			hitLevel = i
			break
		}
		lv.stats.Misses++
	}
	if hitLevel == len(h.levels) {
		lat += h.memLatency
	}
	for _, lv := range h.levels[:hitLevel] {
		lv.fill(addr)
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
			if i > 0 { // move to the MRU position
				copy(ways[1:i+1], ways[:i])
				ways[0] = tag
			}
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
	h.mruSpan = 0
	for _, lv := range h.levels {
		clear(lv.used)
	}
}
