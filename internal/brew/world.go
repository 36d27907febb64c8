package brew

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// vKind classifies a tracked integer value.
type vKind uint8

const (
	// vUnknown: a runtime value; the register holds it in generated code.
	vUnknown vKind = iota
	// vConst: a compile-time (rewrite-time) constant.
	vConst
	// vStackRel: entrySP + delta, where entrySP is the runtime stack
	// pointer at entry of the rewritten function. Stack-relative values
	// keep frame addressing correct in generated code even though the
	// runtime stack position is unknown at rewrite time.
	vStackRel
)

// ival is the tracked state of one integer register or stack slot. mat
// ("materialized") records whether the generated code, at this program
// point, holds the value in the corresponding register; known values start
// unmaterialized and are materialized lazily when an emitted instruction
// needs them (the paper's compensation code).
type ival struct {
	val  uint64 // constant, or stack delta (as uint64 bit pattern of int64)
	kind vKind
	mat  bool
}

func unknown() ival          { return ival{kind: vUnknown} }
func konst(v uint64) ival    { return ival{kind: vConst, val: v} }
func stackRel(d int64) ival  { return ival{kind: vStackRel, val: uint64(d)} }
func (v ival) isConst() bool { return v.kind == vConst }
func (v ival) isKnown() bool { return v.kind != vUnknown }
func (v ival) delta() int64  { return int64(v.val) }

// fval is the tracked state of one floating-point register.
type fval struct {
	val   float64
	known bool
	mat   bool
}

// flagval is the tracked state of the condition flags.
type flagval struct {
	known bool
	fl    isa.Flags
}

// stackSlot is a traced stack-memory cell at delta bytes from the entry SP:
// an ival (never materialized — a slot is memory) of 1 or 8 bytes. Float
// bits are stored as vConst raw bits.
type stackSlot struct {
	delta int64
	val   uint64
	kind  vKind
	size  uint8
}

func (s stackSlot) end() int64 { return s.delta + int64(s.size) }
func (s stackSlot) v() ival    { return ival{kind: s.kind, val: s.val} }

// memWord is the traced-writes overlay on one aligned 8-byte word of
// declared-known memory: which of its bytes were written during the trace
// (have), which of those hold a known value (known, a subset of have; the
// rest are poisoned: runtime-valued, shadowing the declared range), and the
// known bytes themselves, little-endian, zero where not known. A word with
// no written byte is not stored, so equal overlays are equal slices.
type memWord struct {
	addr  uint64
	have  uint8
	known uint8
	val   uint64
}

// byteMask widens a per-byte bit set to the bytes it selects.
func byteMask(set uint8) uint64 {
	var m uint64
	for ; set != 0; set &= set - 1 {
		m |= 0xFF << (8 * uint(bits.TrailingZeros8(set)))
	}
	return m
}

// world is the known-world state (paper, Section III.F): for every value
// location, whether its content is known, and if so what it is.
//
// The two overlays are sorted slices (stack by descending delta — the stack
// grows down, so a push appends — with slots that never overlap; mem by
// addr) that worlds share until one of them writes: a block's entry
// snapshot and the tracer's working world start out on the same backing
// arrays. The ownership rule: a world may store into a backing array only
// while its *Shared flag is false; shareInto sets the flag on both sides and
// the first in-place write by either copies (ownStack/ownMem). Dropping a
// prefix or suffix re-slices without writing and needs no copy.
type world struct {
	r     [isa.NumRegs]ival
	f     [isa.NumRegs]fval
	flags flagval
	// fdirty records that the runtime condition flags may differ from the
	// traced ones because a flag-setting instruction was evaluated
	// silently. Generated code must not read the runtime flags while
	// dirty; an emitted flag-setting instruction cleans them.
	fdirty bool
	// escaped records that a frame address was observed flowing into a
	// general register (LEA of a stack slot, SP copy, reload of a spilled
	// frame pointer). Until then, the frame below the entry SP is private
	// to the traced function (C forbids callers from aliasing it), so
	// stores through unknown pointers cannot touch tracked slots below
	// the entry SP.
	escaped bool

	stackShared, memShared bool
	stack                  []stackSlot
	mem                    []memWord
}

func newWorld() *world {
	w := &world{}
	w.r[isa.SP] = ival{kind: vStackRel, val: 0, mat: true}
	return w
}

// shareInto makes dst a copy of w on the same overlay arrays; both sides
// copy an overlay before their next in-place write to it.
func (w *world) shareInto(dst *world) {
	w.stackShared, w.memShared = true, true
	*dst = *w
}

// share is shareInto a new world.
func (w *world) share() *world {
	nw := new(world)
	w.shareInto(nw)
	return nw
}

// ownStack makes the stack overlay writable in place.
func (w *world) ownStack() {
	if w.stackShared {
		w.stack = append(make([]stackSlot, 0, len(w.stack)+len(w.stack)/4+8), w.stack...)
		w.stackShared = false
	}
}

// ownMem makes the memory overlay writable in place.
func (w *world) ownMem() {
	if w.memShared {
		w.mem = append(make([]memWord, 0, len(w.mem)+2), w.mem...)
		w.memShared = false
	}
}

// spDelta returns the current symbolic stack-pointer offset from entry SP.
// ok is false when the traced code moved SP to a non-stack-relative value.
func (w *world) spDelta() (int64, bool) {
	sp := w.r[isa.SP]
	if sp.kind != vStackRel {
		return 0, false
	}
	return sp.delta(), true
}

// stackBelow returns the index of the first slot strictly below delta (the
// overlay is sorted by descending delta).
func (w *world) stackBelow(delta int64) int {
	lo, hi := 0, len(w.stack)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); w.stack[mid].delta >= delta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// writeStack records a traced stack store, invalidating overlapping slots.
// v's materialization is dropped: a slot is memory.
func (w *world) writeStack(delta int64, size uint8, v ival) {
	ns := stackSlot{delta: delta, val: v.val, kind: v.kind, size: size}
	// [lo, hi) are the slots overlapping [delta, end): of those starting
	// below end, the run — slots never overlap, so their ends descend with
	// their starts — that end above delta.
	lo := w.stackBelow(ns.end())
	hi := lo
	for hi < len(w.stack) && w.stack[hi].end() > delta {
		hi++
	}
	if hi == lo+1 && w.stack[lo] == ns {
		return
	}
	w.ownStack()
	switch {
	case hi == lo:
		w.stack = append(w.stack, stackSlot{})
		copy(w.stack[lo+1:], w.stack[lo:])
	case hi > lo+1:
		w.stack = append(w.stack[:lo+1], w.stack[hi:]...)
	}
	w.stack[lo] = ns
}

// slotAt returns the slot starting exactly at delta.
func (w *world) slotAt(delta int64) (stackSlot, bool) {
	if i := w.stackBelow(delta + 1); i < len(w.stack) && w.stack[i].delta == delta {
		return w.stack[i], true
	}
	return stackSlot{}, false
}

// readStack returns the traced content of a stack slot, if exactly tracked.
func (w *world) readStack(delta int64, size uint8) (ival, bool) {
	s, ok := w.slotAt(delta)
	if !ok || s.size != size {
		return ival{}, false
	}
	return s.v(), true
}

// clearStack forgets all traced stack contents (conservative treatment of
// emitted calls: the callee may overwrite the frame through escaped
// pointers and certainly overwrites memory below SP).
func (w *world) clearStack() {
	w.stack, w.stackShared = nil, false
}

// clearStackCallerVisible drops tracked slots at or above the entry SP
// (delta >= 0): that region belongs to the caller and may legally be
// aliased by pointers the traced function received.
func (w *world) clearStackCallerVisible() {
	w.stack = w.stack[w.stackBelow(0):]
}

// clearStackBelow drops tracked slots strictly below the given delta: dead
// space a callee is free to clobber.
func (w *world) clearStackBelow(delta int64) {
	w.stack = w.stack[:w.stackBelow(delta)]
}

// clearMem forgets the traced-writes overlay.
func (w *world) clearMem() {
	w.mem, w.memShared = nil, false
}

// memFrom returns the index of the first overlay word at or above addr.
func (w *world) memFrom(addr uint64) int {
	lo, hi := 0, len(w.mem)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); w.mem[mid].addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// memByte returns the overlay's entry for one byte: present (the byte was
// written during the trace), and if so whether its value is known.
func (w *world) memByte(addr uint64) (b byte, known, present bool) {
	i := w.memFrom(addr &^ 7)
	if i == len(w.mem) || w.mem[i].addr != addr&^7 {
		return 0, false, false
	}
	mw, bit := w.mem[i], uint8(1)<<(addr&7)
	return byte(mw.val >> (8 * (addr & 7))), mw.known&bit != 0, mw.have&bit != 0
}

// setMemByte writes one overlay byte.
func (w *world) setMemByte(addr uint64, b byte, known bool) {
	w.ownMem()
	i := w.memFrom(addr &^ 7)
	if i == len(w.mem) || w.mem[i].addr != addr&^7 {
		w.mem = append(w.mem, memWord{})
		copy(w.mem[i+1:], w.mem[i:])
		w.mem[i] = memWord{addr: addr &^ 7}
	}
	mw, bit, sh := &w.mem[i], uint8(1)<<(addr&7), 8*(addr&7)
	mw.have |= bit
	mw.known &^= bit
	mw.val &^= 0xFF << sh
	if known {
		mw.known |= bit
		mw.val |= uint64(b) << sh
	}
}

// poisonMem marks size bytes at addr as runtime-valued, shadowing any
// declared-known range.
func (w *world) poisonMem(addr uint64, size int) {
	for i := 0; i < size; i++ {
		w.setMemByte(addr+uint64(i), 0, false)
	}
}

// overlayWrite records a traced write of a known value to known memory.
func (w *world) overlayWrite(addr uint64, v uint64, size int) {
	for i := 0; i < size; i++ {
		w.setMemByte(addr+uint64(i), byte(v), true)
		v >>= 8
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// worldHashMask is all ones outside tests; the collision tests clear it so
// that every world hashes to zero and only same() tells worlds apart.
var worldHashMask = ^uint64(0)

// hash folds the world's canonical content, a word at a time and without
// allocating, into 64 bits. Blocks starting at the same original address
// are different translations when their known-world state differs (paper,
// Section III.F); the hash only nominates an existing translation for an
// edge — equal hashes prove nothing, same() decides.
func (w *world) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
		h ^= h >> 29
	}
	for i := range w.r {
		mix(uint64(w.r[i].kind) | boolBit(w.r[i].mat)<<8)
		if w.r[i].isKnown() {
			mix(w.r[i].val)
		}
	}
	for i := range w.f {
		mix(boolBit(w.f[i].known) | boolBit(w.f[i].mat)<<1)
		if w.f[i].known {
			mix(math.Float64bits(w.f[i].val))
		}
	}
	mix(w.flags.fl.Bits()<<1 | boolBit(w.flags.known) | boolBit(w.fdirty)<<5 | boolBit(w.escaped)<<6)
	for _, s := range w.stack {
		mix(uint64(s.delta))
		mix(uint64(s.size) | uint64(s.kind)<<8)
		mix(s.val)
	}
	for _, m := range w.mem {
		mix(m.addr)
		mix(uint64(m.have) | uint64(m.known)<<8)
		mix(m.val)
	}
	return h & worldHashMask
}

// same reports whether two worlds are the same known-world state: the
// identity under which an edge may link to an existing translation. It
// compares exactly what hash folds — a register's value only where known,
// every slot, every overlay byte.
func same(a, b *world) bool {
	if a.flags != b.flags || a.fdirty != b.fdirty || a.escaped != b.escaped ||
		len(a.stack) != len(b.stack) || len(a.mem) != len(b.mem) {
		return false
	}
	for i := range a.r {
		x, y := a.r[i], b.r[i]
		if x.kind != y.kind || x.mat != y.mat || (x.isKnown() && x.val != y.val) {
			return false
		}
	}
	for i := range a.f {
		x, y := a.f[i], b.f[i]
		if x.known != y.known || x.mat != y.mat ||
			(x.known && math.Float64bits(x.val) != math.Float64bits(y.val)) {
			return false
		}
	}
	for i, x := range a.stack {
		if x != b.stack[i] {
			return false
		}
	}
	for i, x := range a.mem {
		if x != b.mem[i] {
			return false
		}
	}
	return true
}

// compat reports whether control flow in state w may jump into a block
// traced with entry state t, and if so which registers (integer and float
// files of the returned set) need materializing compensation first (paper:
// "we can produce compensation code for migrating between world states as
// long as there are only values changing from known to unknown").
//
// Requirements:
//   - wherever t assumes a known value, w must know the same value;
//   - flags known in t must be known and equal in w (flags cannot be
//     re-materialized);
//   - stack slots and memory overlay entries known in t must match in w
//     (the runtime always holds the true values because stores are always
//     emitted; known-ness only licenses folding in t's code);
//   - registers that t's code reads from the machine (t unknown, or t
//     materialized) must actually hold their value at runtime: w-known
//     unmaterialized registers migrating to such a spot need
//     materialization.
func compat(w, t *world) (comp regMask, ok bool) {
	for i := range w.r {
		wv, tv := w.r[i], t.r[i]
		if tv.isKnown() {
			if wv.kind != tv.kind || wv.val != tv.val {
				return 0, false
			}
			if tv.mat && !wv.mat {
				comp |= intBit(isa.Reg(i))
			}
		} else if wv.isKnown() && !wv.mat {
			comp |= intBit(isa.Reg(i))
		}
	}
	for i := range w.f {
		wv, tv := w.f[i], t.f[i]
		if tv.known {
			if !wv.known || math.Float64bits(wv.val) != math.Float64bits(tv.val) {
				return 0, false
			}
			if tv.mat && !wv.mat {
				comp |= floatBit(isa.Reg(i))
			}
		} else if wv.known && !wv.mat {
			comp |= floatBit(isa.Reg(i))
		}
	}
	if t.flags.known {
		if !w.flags.known || w.flags.fl != t.flags.fl {
			return 0, false
		}
	} else if !t.fdirty {
		// t's code may read the runtime flags, which it assumed were
		// produced by the original flag-setter sequence; w must arrive
		// with clean runtime flags and no silently-tracked state.
		if w.flags.known || w.fdirty {
			return 0, false
		}
	}
	// t traced without frame escape may fold slots across unknown stores;
	// arriving with an escaped frame would make those folds stale.
	if w.escaped && !t.escaped {
		return 0, false
	}
	for _, ts := range t.stack {
		if ts.kind == vUnknown {
			continue
		}
		if ws, found := w.slotAt(ts.delta); !found || ws != ts {
			return 0, false
		}
	}
	for _, tm := range t.mem {
		if tm.known == 0 {
			// t poisoned (unknown) entries are fine: t's code treats those
			// bytes as runtime memory, which always holds the truth.
			continue
		}
		i := w.memFrom(tm.addr)
		if i == len(w.mem) || w.mem[i].addr != tm.addr {
			return 0, false
		}
		if wm := w.mem[i]; tm.known&^wm.known != 0 || (tm.val^wm.val)&byteMask(tm.known) != 0 {
			return 0, false
		}
	}
	return comp, true
}

// generalize returns a copy of w with every location that is not known
// identically in all of the given worlds made unknown. Migrating to the
// generalized world always terminates at all-unknown (paper, Section
// III.F).
func generalize(w *world, others []*world) *world {
	g := w.share()
	for i := range g.r {
		if i == int(isa.SP) {
			continue // SP stays symbolic
		}
		for _, o := range others {
			if o.r[i].kind != g.r[i].kind || o.r[i].val != g.r[i].val {
				g.r[i] = unknown()
				break
			}
		}
	}
	for i := range g.f {
		for _, o := range others {
			if o.f[i].known != g.f[i].known ||
				(g.f[i].known && math.Float64bits(o.f[i].val) != math.Float64bits(g.f[i].val)) {
				g.f[i] = fval{}
				break
			}
		}
	}
	g.flags = flagval{}
	g.fdirty = true  // incoming runtime flags are arbitrary
	g.escaped = true // most conservative: accept any incoming frame state
	// Keep only stack slots agreeing across all worlds.
	agreed := func(s stackSlot) bool {
		for _, o := range others {
			if os, found := o.slotAt(s.delta); !found || os != s {
				return false
			}
		}
		return true
	}
	for i, s := range g.stack {
		if agreed(s) {
			continue
		}
		kept := append(make([]stackSlot, 0, len(g.stack)-1), g.stack[:i]...)
		for _, s := range g.stack[i+1:] {
			if agreed(s) {
				kept = append(kept, s)
			}
		}
		g.stack, g.stackShared = kept, false
		break
	}
	// Overlay bytes that another world lacks or holds differently become
	// poisoned (present, runtime-valued).
	for i := range g.mem {
		gm := g.mem[i]
		var bad uint8
		for _, o := range others {
			j := o.memFrom(gm.addr)
			if j == len(o.mem) || o.mem[j].addr != gm.addr {
				bad = gm.have
				break
			}
			om := o.mem[j]
			bad |= gm.have &^ om.have
			bad |= (gm.known ^ om.known) & gm.have
			for b := uint(0); b < 8; b++ {
				if byte(gm.val>>(8*b)) != byte(om.val>>(8*b)) {
					bad |= 1 << b & gm.have
				}
			}
		}
		if bad&gm.known != 0 {
			g.ownMem()
			g.mem[i].known &^= bad
			g.mem[i].val &^= byteMask(bad)
		}
	}
	return g
}
