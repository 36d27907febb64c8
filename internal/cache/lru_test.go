package cache

import (
	"math/rand"
	"testing"
)

// TestAccessSizeZeroNoUnderflow is the regression test for an underflow in
// Access: with size == 0, `addr + size - 1` wrapped around and the line walk
// iterated over (nearly) the whole 64-bit address space. A zero- or
// negative-sized access must cost nothing and touch no state.
func TestAccessSizeZeroNoUnderflow(t *testing.T) {
	h := single(t, 1024, 64, 2, 4, 100)
	if lat := h.Access(0, 0); lat != 0 {
		t.Errorf("Access(0, 0) = %d, want 0", lat)
	}
	if lat := h.Access(12345, 0); lat != 0 {
		t.Errorf("Access(12345, 0) = %d, want 0", lat)
	}
	if lat := h.Access(64, -8); lat != 0 {
		t.Errorf("Access(64, -8) = %d, want 0", lat)
	}
	for _, s := range h.Stats() {
		if s.Accesses() != 0 {
			t.Errorf("%s recorded %d accesses for size<=0 requests", s.Name, s.Accesses())
		}
	}
	// An empty hierarchy is free too.
	empty, err := New(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lat := empty.Access(0, 8); lat != 0 {
		t.Errorf("empty hierarchy Access = %d, want 0", lat)
	}
}

// TestLRUEvictionOrderFullAssoc fills one set to full associativity and
// checks that a conflict evicts exactly the least recently used way.
func TestLRUEvictionOrderFullAssoc(t *testing.T) {
	// 4-way, sets = 2048/(64*4) = 8, so stride 512 maps to the same set.
	h := single(t, 2048, 64, 4, 4, 100)
	lines := []uint64{0, 512, 1024, 1536, 2048} // five lines, one set
	for _, a := range lines[:4] {
		h.Access(a, 8) // cold fill; MRU order now 1536, 1024, 512, 0
	}
	h.Access(lines[4], 8) // conflict: must evict line 0 (LRU)
	if lat := h.Access(lines[0], 8); lat != 104 {
		t.Errorf("evicted LRU line should miss: latency %d, want 104", lat)
	}
	// Line 0's refill in turn evicted 512 (LRU after the 2048 fill);
	// the remaining three stayed resident.
	for _, a := range []uint64{1024, 1536, 2048} {
		if lat := h.Access(a, 8); lat != 4 {
			t.Errorf("line 0x%x should still hit: latency %d, want 4", a, lat)
		}
	}
	if lat := h.Access(512, 8); lat != 104 {
		t.Errorf("second-oldest line should have been evicted next: latency %d, want 104", lat)
	}
}

// TestMRUPromotionOnHit: a hit must move the line to the MRU position, so
// the *other* resident line is the eviction victim.
func TestMRUPromotionOnHit(t *testing.T) {
	h := single(t, 1024, 64, 2, 4, 100)
	a, b, c := uint64(0), uint64(512), uint64(1024) // one 2-way set
	h.Access(a, 8)                                  // order: a
	h.Access(b, 8)                                  // order: b, a
	h.Access(a, 8)                                  // hit promotes a: order a, b
	h.Access(c, 8)                                  // evicts b, not a
	if lat := h.Access(a, 8); lat != 4 {
		t.Errorf("promoted line was evicted: latency %d, want 4", lat)
	}
	if lat := h.Access(b, 8); lat != 104 {
		t.Errorf("unpromoted line should have been the victim: latency %d, want 104", lat)
	}
}

// TestMultiLineSpanLatency: an access spanning N lines charges each line
// independently, both cold and warm.
func TestMultiLineSpanLatency(t *testing.T) {
	h := single(t, 4096, 64, 4, 4, 100)
	// 256 bytes at an aligned base: exactly 4 lines.
	if lat := h.Access(0, 256); lat != 4*104 {
		t.Errorf("4-line cold span = %d, want %d", lat, 4*104)
	}
	if lat := h.Access(0, 256); lat != 4*4 {
		t.Errorf("4-line warm span = %d, want %d", lat, 4*4)
	}
	// Misaligned span: bytes [100, 240) touch lines 64, 128, 192 — the
	// head and tail partial lines count like full ones.
	h2 := single(t, 4096, 64, 4, 4, 100)
	if lat := h2.Access(100, 140); lat != 3*104 {
		t.Errorf("misaligned 3-line cold span = %d, want %d", lat, 3*104)
	}
	if lat := h2.Access(100, 140); lat != 3*4 {
		t.Errorf("misaligned 3-line warm span = %d, want %d", lat, 3*4)
	}
}

// refLevel is the textbook model the flat tag arrays must agree with: one
// little slice per set, most recently used first.
type refLevel struct {
	cfg   Level
	sets  [][]uint64
	stats Stats
}

func (r *refLevel) tagSet(addr uint64) (uint64, *[]uint64) {
	tag := addr / uint64(r.cfg.LineSize)
	return tag, &r.sets[tag%uint64(len(r.sets))]
}

func (r *refLevel) lookup(addr uint64) bool {
	tag, s := r.tagSet(addr)
	for i, t := range *s {
		if t == tag {
			*s = append(append([]uint64{tag}, (*s)[:i]...), (*s)[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refLevel) fill(addr uint64) {
	tag, s := r.tagSet(addr)
	if len(*s) == r.cfg.Assoc {
		*s = (*s)[:len(*s)-1]
		r.stats.Evictions++
	}
	*s = append([]uint64{tag}, *s...)
}

// TestMatchesReferenceModel replays random access streams — hot lines,
// strided conflicts, accesses straddling lines, flushes in between —
// through the hierarchy and through the reference, and wants every latency
// and every counter equal.
func TestMatchesReferenceModel(t *testing.T) {
	cfgs := []Level{
		{Name: "L1", Size: 1 << 10, LineSize: 64, Assoc: 2, Latency: 4},
		{Name: "L2", Size: 8 << 10, LineSize: 64, Assoc: 4, Latency: 12},
		{Name: "L3", Size: 24 << 10, LineSize: 64, Assoc: 3, Latency: 36},
	}
	const memLatency = 160
	h, err := New(cfgs, memLatency)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*refLevel, len(cfgs))
	for i, c := range cfgs {
		ref[i] = &refLevel{cfg: c, sets: make([][]uint64, c.Size/(c.LineSize*c.Assoc))}
	}
	refLine := func(addr uint64) int {
		lat, hit := 0, len(ref)
		for i, r := range ref {
			lat += r.cfg.Latency
			if r.lookup(addr) {
				r.stats.Hits++
				hit = i
				break
			}
			r.stats.Misses++
		}
		if hit == len(ref) {
			lat += memLatency
		}
		for _, r := range ref[:hit] {
			r.fill(addr)
		}
		return lat
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		var addr uint64
		switch r.Intn(4) {
		case 0:
			addr = uint64(r.Intn(2 << 10)) // hot, fits L2
		case 1:
			addr = uint64(r.Intn(64)) * 4096 // one set, many tags
		case 2:
			addr = uint64(r.Intn(256 << 10)) // thrashes everything
		case 3:
			addr = uint64(i/3) * 8 // sequential words, repeated
		}
		size := []int{1, 8, 8, 8, 32}[r.Intn(5)]
		want := 0
		for a := addr &^ 63; a <= (addr+uint64(size)-1)&^63; a += 64 {
			want += refLine(a)
		}
		if got := h.Access(addr, size); got != want {
			t.Fatalf("access %d (0x%x, %d): latency %d, reference %d", i, addr, size, got, want)
		}
		if r.Intn(20_000) == 0 {
			h.Flush()
			for _, l := range ref {
				for s := range l.sets {
					l.sets[s] = nil
				}
			}
		}
	}
	for i, lv := range h.Stats() {
		if lv.Stats != ref[i].stats {
			t.Errorf("%s: %+v, reference %+v", lv.Name, lv.Stats, ref[i].stats)
		}
	}
}
