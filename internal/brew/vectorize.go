package brew

import "repro/internal/isa"

// The greedy vectorization pass the paper plans in Sections IV and V.B:
// "a simple greedy vectorization pass ... guiding the search for best
// replacement of scalar operations with vector instructions", applied to
// straight-line code ("(2) vectorization by replacing scalar instruction
// with vector versions with same semantics").
//
// It recognizes the reduction runs that full unrolling produces:
//
//	fload fX, [b+d]      ; fadd fS, fX
//	fload fX, [b+d+8]    ; fadd fS, fX
//	fload fX, [b+d+16]   ; fadd fS, fX
//	fload fX, [b+d+24]   ; fadd fS, fX
//
// and, with a loop-invariant factor,
//
//	fload fX, [b+d+8i] ; fmul fX, fC ; fadd fS, fX   (x4)
//
// replacing each group of four with VLOAD / (VBCAST+VMUL) / VHADD / FADD.
// Horizontal summation reassociates the floating-point additions, so the
// pass only runs when Config.Vectorize opts in (the moral equivalent of
// -ffast-math).
//
// The pass needs a free vector register pair and, for the multiply form, a
// second one for the broadcast factor; vector registers are caller-saved
// and the tracer never emits vector code on its own, so v6/v7 are free
// unless the traced code itself used them.

// vectorize runs the pass over every block (all compacted: it matches
// adjacent instructions) and returns how many instructions it saved.
func (o *optimizer) vectorize() int {
	saved := 0
	for _, b := range o.blocks {
		before := len(b.ins)
		vectorizeBlock(b)
		saved += before - len(b.ins)
	}
	return saved
}

// vecGroup is one matched run of four lanes.
type vecGroup struct {
	start   int // index of the first instruction of lane 0
	perLane int // instructions per lane (2, 3 or 4)
	base    isa.Reg
	disp    int32
	acc     isa.Reg // scalar accumulator (float file)
	lane    isa.Reg // scalar lane register (float file)
	temp    isa.Reg // copy temporary (copy-mul form only), else == lane
	factor  isa.Reg // multiply factor register (mul forms only)
	mul     bool
}

func vectorizeBlock(b *eblock) {
	if usesVec(b, isa.Reg(6)) || usesVec(b, isa.Reg(7)) {
		return
	}
	var groups []vecGroup
	i := 0
	for i < len(b.ins) {
		if g, ok := matchGroup(b, i); ok {
			// The scalar lane registers no longer receive their final
			// per-lane values; the rewrite is only valid when nothing
			// reads them afterwards.
			end := g.start + 4*g.perLane
			if !regReadBeforeRedefined(b, end, regRef{isa.RFFloat, g.lane}) &&
				(g.temp == g.lane || !regReadBeforeRedefined(b, end, regRef{isa.RFFloat, g.temp})) {
				groups = append(groups, g)
				i = end
				continue
			}
		}
		i++
	}
	if len(groups) == 0 {
		return
	}
	// Rewrite back to front so indices stay valid.
	for gi := len(groups) - 1; gi >= 0; gi-- {
		g := groups[gi]
		var repl []isa.Instr
		mem := isa.BaseDisp(g.base, g.disp)
		if g.base == isa.RegNone {
			mem = isa.Abs(g.disp)
		}
		repl = append(repl, isa.MakeRM(isa.VLOAD, isa.Reg(6), mem))
		if g.mul {
			repl = append(repl,
				isa.MakeRR(isa.VBCAST, isa.Reg(7), g.factor),
				isa.MakeRR(isa.VMUL, isa.Reg(6), isa.Reg(7)),
			)
		}
		repl = append(repl,
			isa.MakeRR(isa.VHADD, g.lane, isa.Reg(6)),
			isa.MakeRR(isa.FADD, g.acc, g.lane),
		)
		tail := append([]isa.Instr(nil), b.ins[g.start+4*g.perLane:]...)
		b.ins = append(b.ins[:g.start], append(repl, tail...)...)
		// Metadata is positional; rebuild it empty (the pass runs after
		// every frame-sensitive pass).
	}
	b.meta = make([]insMeta, len(b.ins))
}

func usesVec(b *eblock, v isa.Reg) bool {
	for _, in := range b.ins {
		if in.Dst.Kind == isa.KindVReg && in.Dst.Reg == v {
			return true
		}
		if in.Src.Kind == isa.KindVReg && in.Src.Reg == v {
			return true
		}
	}
	return false
}

// matchGroup tries to match four consecutive lanes starting at index i.
func matchGroup(b *eblock, i int) (vecGroup, bool) {
	g, ok := matchLane(b, i)
	if !ok {
		return vecGroup{}, false
	}
	for lane := 1; lane < 4; lane++ {
		idx := i + lane*g.perLane
		l2, ok := matchLane(b, idx)
		if !ok || l2.perLane != g.perLane || l2.base != g.base ||
			l2.acc != g.acc || l2.lane != g.lane || l2.temp != g.temp ||
			l2.mul != g.mul || (g.mul && l2.factor != g.factor) ||
			l2.disp != g.disp+int32(8*lane) {
			return vecGroup{}, false
		}
	}
	return g, true
}

// matchLane matches one {fload; [fmul;] fadd} lane at index i.
func matchLane(b *eblock, i int) (vecGroup, bool) {
	if i+1 >= len(b.ins) {
		return vecGroup{}, false
	}
	ld := b.ins[i]
	if ld.Op != isa.FLOAD {
		return vecGroup{}, false
	}
	m := ld.Src.Mem
	if m.HasIndex() {
		return vecGroup{}, false
	}
	base := isa.RegNone
	if m.HasBase() {
		base = m.Base
		if base == ld.Dst.Reg {
			return vecGroup{}, false
		}
	}
	lane := ld.Dst.Reg
	// Plain reduction: fadd acc, lane.
	if in := b.ins[i+1]; in.Op == isa.FADD && in.Src.Reg == lane && in.Dst.Reg != lane {
		return vecGroup{
			start: i, perLane: 2, base: base, disp: m.Disp,
			acc: in.Dst.Reg, lane: lane, temp: lane,
		}, true
	}
	// Multiply-accumulate: fmul lane, factor ; fadd acc, lane.
	if i+2 < len(b.ins) {
		mul, add := b.ins[i+1], b.ins[i+2]
		if mul.Op == isa.FMUL && mul.Dst.Reg == lane && mul.Src.Reg != lane &&
			add.Op == isa.FADD && add.Src.Reg == lane && add.Dst.Reg != lane &&
			add.Dst.Reg != mul.Src.Reg {
			return vecGroup{
				start: i, perLane: 3, base: base, disp: m.Disp,
				acc: add.Dst.Reg, lane: lane, temp: lane, factor: mul.Src.Reg, mul: true,
			}, true
		}
	}
	// Copy-multiply-accumulate, the shape two-address code generators
	// produce for s += a[i] * f:
	//   fload L, [b+d] ; fmov T, L ; fmul T, F ; fadd A, T
	if i+3 < len(b.ins) {
		cp, mul, add := b.ins[i+1], b.ins[i+2], b.ins[i+3]
		if cp.Op == isa.FMOV && cp.Src.Reg == lane && cp.Dst.Reg != lane {
			tmp := cp.Dst.Reg
			if mul.Op == isa.FMUL && mul.Dst.Reg == tmp && mul.Src.Reg != tmp && mul.Src.Reg != lane &&
				add.Op == isa.FADD && add.Src.Reg == tmp && add.Dst.Reg != tmp &&
				add.Dst.Reg != lane && add.Dst.Reg != mul.Src.Reg {
				return vecGroup{
					start: i, perLane: 4, base: base, disp: m.Disp,
					acc: add.Dst.Reg, lane: lane, temp: tmp, factor: mul.Src.Reg, mul: true,
				}, true
			}
		}
	}
	return vecGroup{}, false
}
