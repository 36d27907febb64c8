package vm_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// aluOperands are the operand values TestALUMatchesEval tries every opcode
// on: the edges of the signed and unsigned ranges, shift counts at and past
// the register width, and 1 000 seeded randoms.
func aluOperands() []uint64 {
	vs := []uint64{0, 1, 2, math.MaxUint64, math.MaxUint64 - 1,
		1 << 63, 1<<63 - 1, 1<<63 + 1, 63, 64, 65, 127, 128, 255, 0x80, 0x7f, 1 << 31, 1<<32 - 1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		switch i % 4 { // small magnitudes make IDIV, IMUL and the shifts interesting
		case 1:
			v >>= 40
		case 2:
			v = uint64(-int64(v >> 48))
		case 3:
			v &= 127
		}
		vs = append(vs, v)
	}
	return vs
}

// TestALUMatchesEval: for every integer ALU opcode, register and immediate
// forms, one Step leaves exactly what isa.EvalALU (isa.EvalALU1 for
// NEG/NOT) says: the result in the destination when the op writes it, the
// flags when it sets them, every other register, the flags otherwise and
// the PC one instruction on. IDIV and IREM by zero fault with
// isa.ErrDivideByZero and change nothing. isa is the one definition of
// integer semantics; the emulator may take its own route to them.
func TestALUMatchesEval(t *testing.T) {
	m := vm.MustNew()
	at, err := m.JITAlloc.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	const dst, src = isa.R3, isa.R7
	var code []byte
	load := func(ins isa.Instr) {
		ins.Addr = at
		if code, err = isa.AppendEncode(code[:0], ins); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJIT(at, code); err != nil {
			t.Fatal(err)
		}
	}
	// step runs the loaded instruction once from a known state and checks
	// it against the reference: a is dst's value, b src's (or the
	// immediate), fl the flags before.
	step := func(ins isa.Instr, a, b uint64, fl isa.Flags, same bool) {
		t.Helper()
		var before vm.CPU
		for r := range before.R {
			before.R[r] = 0x1000 + uint64(r)
		}
		before.R[isa.SP] = m.CPU.R[isa.SP]
		before.R[dst] = a
		if !same {
			before.R[src] = b
		}
		before.Flags, before.PC = fl, at
		m.CPU = before

		want := before
		want.PC = at + uint64(len(code))
		var wantErr error
		switch ins.Op {
		case isa.NEG, isa.NOT:
			r, rfl, setsFl := isa.EvalALU1(ins.Op, a)
			want.R[dst] = r
			if setsFl {
				want.Flags = rfl
			}
		default:
			r, rfl, writes, err := isa.EvalALU(ins.Op, a, b)
			if wantErr = err; err != nil {
				want = before
				break
			}
			if writes {
				want.R[dst] = r
			}
			if isa.SetsFlags(ins.Op) {
				want.Flags = rfl
			}
		}

		err := m.Step()
		switch {
		case wantErr != nil:
			if !errors.Is(err, wantErr) {
				t.Fatalf("%v with r3=%#x, b=%#x: err %v, want %v", ins, a, b, err, wantErr)
			}
		case err != nil:
			t.Fatalf("%v with r3=%#x, b=%#x: %v", ins, a, b, err)
		}
		if m.CPU != want {
			t.Fatalf("%v with r3=%#x, b=%#x, flags %+v:\n got r3=%#x flags %+v pc %#x\nwant r3=%#x flags %+v pc %#x",
				ins, a, b, fl, m.CPU.R[dst], m.CPU.Flags, m.CPU.PC, want.R[dst], want.Flags, want.PC)
		}
	}

	vs := aluOperands()
	flagsFor := func(i int) isa.Flags { return isa.FlagsFromBits(uint64(i) & 15) }
	regOps := []isa.Opcode{isa.MOV, isa.ADD, isa.SUB, isa.IMUL, isa.IDIV, isa.IREM, isa.AND,
		isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.CMP, isa.TEST}
	immOps := []isa.Opcode{isa.MOVI, isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.CMPI}

	for _, op := range regOps {
		ins := isa.MakeRR(op, dst, src)
		load(ins)
		for i, a := range vs {
			// Every edge against every edge, each random against its
			// neighbour and against an edge.
			bs := []uint64{vs[(i+1)%len(vs)], vs[i%18]}
			if i < 18 {
				bs = vs[:18]
			}
			for j, b := range bs {
				step(ins, a, b, flagsFor(i+j), false)
			}
		}
		self := isa.MakeRR(op, dst, dst)
		load(self)
		for i, a := range vs {
			step(self, a, a, flagsFor(i), true)
		}
	}
	for _, op := range immOps {
		for i, b := range vs {
			ins := isa.MakeRI(op, dst, int64(b))
			load(ins)
			as := []uint64{vs[(i+1)%len(vs)], vs[i%18]}
			if i < 18 {
				as = vs[:18]
			}
			for j, a := range as {
				step(ins, a, b, flagsFor(i+j), false)
			}
		}
	}
	for _, op := range []isa.Opcode{isa.NEG, isa.NOT} {
		ins := isa.MakeR(op, dst)
		load(ins)
		for i, a := range vs {
			step(ins, a, 0, flagsFor(i), false)
		}
	}
}

// TestFPUMatchesEval: for every two-operand float opcode, one Step leaves
// exactly what isa.EvalFPU says — the result bits in the destination when
// the op writes it, the flags for FCMP — on edge values (signed zeros,
// infinities, NaN, subnormals) and seeded randoms, and nothing else
// changes. The loop takes its own route to FMOV, FADD, FSUB and FMUL.
func TestFPUMatchesEval(t *testing.T) {
	m := vm.MustNew()
	at, err := m.JITAlloc.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	const dst, src = isa.R2, isa.R5
	vs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e-310}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vs = append(vs, math.Float64frombits(r.Uint64()), r.NormFloat64())
	}
	bits := func(c *vm.CPU) []uint64 {
		out := []uint64{c.Flags.Bits(), c.PC}
		for _, f := range c.F {
			out = append(out, math.Float64bits(f))
		}
		return append(out, c.R[:]...)
	}
	for _, op := range []isa.Opcode{isa.FMOV, isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSQRT, isa.FCMP} {
		ins := isa.MakeRR(op, dst, src)
		ins.Addr = at
		code, err := isa.AppendEncode(nil, ins)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJIT(at, code); err != nil {
			t.Fatal(err)
		}
		for i, a := range vs {
			for _, b := range []float64{vs[(i+1)%len(vs)], vs[i%14]} {
				var before vm.CPU
				for k := range before.F {
					before.F[k] = float64(k) + 0.25
				}
				before.R[isa.SP] = m.CPU.R[isa.SP]
				before.F[dst], before.F[src] = a, b
				before.Flags, before.PC = isa.FlagsFromBits(uint64(i)&15), at
				m.CPU = before

				want := before
				want.PC = at + uint64(len(code))
				res, fl, writes := isa.EvalFPU(op, a, b)
				if writes {
					want.F[dst] = res
				}
				if op == isa.FCMP {
					want.Flags = fl
				}
				if err := m.Step(); err != nil {
					t.Fatalf("%v with f2=%v, f5=%v: %v", ins, a, b, err)
				}
				if !slices.Equal(bits(&m.CPU), bits(&want)) {
					t.Fatalf("%v with f2=%v, f5=%v: got f2=%v flags %+v, want f2=%v flags %+v",
						ins, a, b, m.CPU.F[dst], m.CPU.Flags, want.F[dst], want.Flags)
				}
			}
		}
	}
}
