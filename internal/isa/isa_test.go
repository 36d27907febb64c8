package isa

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCondHoldsTable(t *testing.T) {
	cases := []struct {
		c    Cond
		f    Flags
		want bool
	}{
		{CondEQ, Flags{Z: true}, true},
		{CondEQ, Flags{}, false},
		{CondNE, Flags{}, true},
		{CondLT, Flags{S: true}, true},
		{CondLT, Flags{S: true, O: true}, false},
		{CondLE, Flags{Z: true}, true},
		{CondGT, Flags{}, true},
		{CondGT, Flags{Z: true}, false},
		{CondGE, Flags{S: true, O: true}, true},
		{CondB, Flags{C: true}, true},
		{CondBE, Flags{Z: true}, true},
		{CondA, Flags{}, true},
		{CondA, Flags{C: true}, false},
		{CondAE, Flags{C: true}, false},
		{CondS, Flags{S: true}, true},
		{CondNS, Flags{S: true}, false},
		{CondO, Flags{O: true}, true},
		{CondNO, Flags{O: true}, false},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.f); got != c.want {
			t.Errorf("%v.Holds(%+v) = %v, want %v", c.c, c.f, got, c.want)
		}
	}
}

func TestCondNegateIsInvolution(t *testing.T) {
	for c := Cond(0); c < numConds; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("negate(negate(%v)) = %v", c, c.Negate().Negate())
		}
		// A condition and its negation never both hold.
		for _, f := range allFlagCombos() {
			if c.Holds(f) == c.Negate().Holds(f) {
				t.Errorf("%v and %v agree on %+v", c, c.Negate(), f)
			}
		}
	}
}

func allFlagCombos() []Flags {
	var out []Flags
	for i := 0; i < 16; i++ {
		out = append(out, Flags{Z: i&1 != 0, S: i&2 != 0, C: i&4 != 0, O: i&8 != 0})
	}
	return out
}

func TestCondFromName(t *testing.T) {
	for c := Cond(0); c < numConds; c++ {
		got, ok := CondFromName(c.String())
		if !ok || got != c {
			t.Errorf("CondFromName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := CondFromName("bogus"); ok {
		t.Error("CondFromName accepted bogus name")
	}
}

func TestImmFormRegFormInverse(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		if ri, ok := ImmForm(op); ok {
			back, ok2 := RegForm(ri)
			if !ok2 || back != op {
				t.Errorf("RegForm(ImmForm(%v)) = %v, %v", op, back, ok2)
			}
		}
	}
}

func TestOpcodeFromName(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		got, ok := OpcodeFromName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeFromName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

func roundtrip(t *testing.T, ins Instr) Instr {
	t.Helper()
	b, err := Encode(ins)
	if err != nil {
		t.Fatalf("encode %v: %v", ins, err)
	}
	got, err := Decode(b, ins.Addr)
	if err != nil {
		t.Fatalf("decode %v (% x): %v", ins, b, err)
	}
	if got.Len != len(b) {
		t.Fatalf("decoded len %d, encoded %d bytes", got.Len, len(b))
	}
	return got
}

func TestEncodeDecodeTable(t *testing.T) {
	cases := []Instr{
		MakeNone(NOP),
		MakeNone(RET),
		MakeNone(HALT),
		MakeR(PUSH, R3),
		MakeR(POP, R14),
		MakeR(NEG, R0),
		MakeR(FNEG, F(7)),
		MakeRR(MOV, R1, R2),
		MakeRR(ADD, R15, R0),
		MakeRR(FADD, F(1), F(2)),
		MakeRR(CVTIF, F(3), R9),
		MakeRR(CVTFI, R9, F(3)),
		MakeRR(VADD, V(1), V(7)),
		MakeRR(VBCAST, V(0), F(15)),
		MakeRR(VHADD, F(2), V(3)),
		MakeRI(MOVI, R1, 0),
		MakeRI(MOVI, R1, 127),
		MakeRI(MOVI, R1, -128),
		MakeRI(MOVI, R1, 128),
		MakeRI(MOVI, R1, -32768),
		MakeRI(MOVI, R1, 1<<31-1),
		MakeRI(MOVI, R1, -1<<31),
		MakeRI(MOVI, R1, 1<<40),
		MakeRI(MOVI, R1, math.MinInt64),
		MakeRI(ADDI, R7, 42),
		MakeRI(CMPI, R2, -1),
		MakeRI(SHLI, R2, 3),
		{Op: FMOVI, Dst: FRegOp(F(1)), Src: FImmOp(3.14159)},
		{Op: FMOVI, Dst: FRegOp(F(0)), Src: FImmOp(0)},
		MakeRM(LOAD, R1, Abs(0x1234)),
		MakeRM(LOAD, R1, BaseDisp(R2, 0)),
		MakeRM(LOAD, R1, BaseDisp(R2, 8)),
		MakeRM(LOAD, R1, BaseDisp(R2, -8)),
		MakeRM(LOAD, R1, BaseDisp(R2, 4096)),
		MakeRM(LOAD, R1, BaseIndex(R2, R3, 8, 16)),
		MakeRM(LOAD, R1, BaseIndex(R2, R3, 1, 0)),
		MakeRM(LOAD, R1, MemRef{Base: RegNone, Index: R3, Scale: 4, Disp: 100}),
		MakeRM(LEA, R4, BaseIndex(SP, R3, 8, -24)),
		MakeRM(FLOAD, F(1), BaseDisp(R2, 24)),
		MakeMR(STORE, BaseDisp(SP, -8), R1),
		MakeMR(FSTORE, Abs(0x7000), F(9)),
		MakeMR(STOREB, BaseDisp(R1, 1), R2),
		MakeRM(LOADB, R2, BaseDisp(R1, 1)),
		MakeRM(VLOAD, V(2), BaseIndex(R1, R2, 8, 0)),
		MakeMR(VSTORE, BaseDisp(R1, 32), V(2)),
		withAddr(MakeRel(JMP, 0x2000), 0x1000),
		withAddr(MakeRel(CALL, 0x10), 0x3000),
		withAddr(MakeJCC(CondLT, 0x1000), 0x1000),
		withAddr(MakeJCC(CondNE, 0x0), 0x5000),
		MakeSetCC(CondGE, R5),
		MakeR(JMPR, R8),
		MakeR(CALLR, R9),
	}
	for _, ins := range cases {
		got := roundtrip(t, ins)
		if got.String() != ins.String() {
			t.Errorf("roundtrip mismatch:\n  in:  %s\n  out: %s", ins, got)
		}
	}
}

func withAddr(i Instr, a uint64) Instr { i.Addr = a; return i }

// F and V make register constants readable in tests.
func F(i int) Reg { return Reg(i) }
func V(i int) Reg { return Reg(i) }

// randInstr generates a random valid instruction for property testing.
func randInstr(r *rand.Rand) Instr {
	for {
		op := Opcode(r.Intn(NumOpcodes))
		if !op.Valid() {
			continue
		}
		info := Info(op)
		reg := func(file RegFile) Reg {
			if file == RFVec {
				return Reg(r.Intn(NumVRegs))
			}
			return Reg(r.Intn(NumRegs))
		}
		mem := func() MemRef {
			m := MemRef{Base: RegNone, Index: RegNone, Scale: 1}
			if r.Intn(4) != 0 {
				m.Base = Reg(r.Intn(NumRegs))
			}
			if r.Intn(3) == 0 {
				m.Index = Reg(r.Intn(NumRegs))
				m.Scale = uint8(1 << r.Intn(4))
			}
			switch r.Intn(3) {
			case 0:
			case 1:
				m.Disp = int32(int8(r.Uint32()))
			case 2:
				m.Disp = int32(r.Uint32())
			}
			return m
		}
		ins := Instr{Op: op, Addr: uint64(r.Intn(1 << 20))}
		switch info.Format {
		case FNone:
		case FR:
			ins.Dst = Operand{Kind: kindFor(info.DstFile), Reg: reg(info.DstFile)}
		case FRR:
			ins.Dst = Operand{Kind: kindFor(info.DstFile), Reg: reg(info.DstFile)}
			ins.Src = Operand{Kind: kindFor(info.SrcFile), Reg: reg(info.SrcFile)}
		case FRI:
			ins.Dst = Operand{Kind: kindFor(info.DstFile), Reg: reg(info.DstFile)}
			ins.Src = ImmOp(int64(r.Uint64()) >> uint(r.Intn(64)))
		case FRM:
			ins.Dst = Operand{Kind: kindFor(info.DstFile), Reg: reg(info.DstFile)}
			ins.Src = MemOp(mem())
		case FMR:
			ins.Dst = MemOp(mem())
			ins.Src = Operand{Kind: kindFor(info.DstFile), Reg: reg(info.DstFile)}
		case FRel:
			ins.Dst = ImmOp(int64(r.Intn(1 << 24)))
		case FCC:
			ins.CC = Cond(r.Intn(int(numConds)))
			ins.Dst = ImmOp(int64(r.Intn(1 << 24)))
		case FCCR:
			ins.CC = Cond(r.Intn(int(numConds)))
			ins.Dst = RegOp(Reg(r.Intn(NumRegs)))
		}
		return ins
	}
}

func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstr(r)
		b, err := Encode(ins)
		if err != nil {
			t.Logf("encode %v: %v", ins, err)
			return false
		}
		got, err := Decode(b, ins.Addr)
		if err != nil {
			t.Logf("decode %v: %v", ins, err)
			return false
		}
		return got.String() == ins.String() && got.Len == len(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Decode([]byte{0xFE}, 0); !errors.Is(err, ErrUndecodable) {
		t.Errorf("bad opcode: %v", err)
	}
	// Truncated MOVI: header says 8-byte immediate, only 2 present.
	if _, err := Decode([]byte{byte(MOVI), 0x13, 1, 2}, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated imm: %v", err)
	}
	// Bad scale in memory operand.
	bad := []byte{byte(LOAD), 0x10 | memHasBase | memHasIndex, 0x23, 9, 0}
	if _, err := Decode(bad, 0); !errors.Is(err, ErrUndecodable) {
		t.Errorf("bad scale: %v", err)
	}
	// Bad condition code in JCC.
	if _, err := Decode([]byte{byte(JCC), 0x3F, 0, 0, 0, 0}, 0); !errors.Is(err, ErrUndecodable) {
		t.Errorf("bad cond: %v", err)
	}
	// Vector register out of range (encoded manually).
	if _, err := Decode([]byte{byte(VADD), 0x9F}, 0); !errors.Is(err, ErrUndecodable) {
		t.Errorf("bad vreg: %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(Instr{Op: Opcode(200)}); err == nil {
		t.Error("invalid opcode accepted")
	}
	if _, err := Encode(Instr{Op: ADD, Dst: RegOp(R1), Src: ImmOp(3)}); err == nil {
		t.Error("ADD with immediate accepted")
	}
	if _, err := Encode(MakeRR(VADD, Reg(12), V(1))); err == nil {
		t.Error("vector register 12 accepted")
	}
	far := MakeRel(JMP, 1<<40)
	if _, err := Encode(far); !errors.Is(err, ErrRelRange) {
		t.Errorf("far jump: %v", err)
	}
	if _, err := Encode(MakeRM(LOAD, R1, MemRef{Base: R1, Index: R2, Scale: 3})); !errors.Is(err, ErrBadScale) {
		t.Error("scale 3 accepted")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{MakeNone(RET), "ret"},
		{MakeRR(ADD, R1, R2), "add r1, r2"},
		{MakeRI(MOVI, R3, -7), "movi r3, -7"},
		{Instr{Op: FMOVI, Dst: FRegOp(F(2)), Src: FImmOp(2.5)}, "fmovi f2, 2.5"},
		{MakeRM(LOAD, R1, BaseIndex(R2, R3, 8, 16)), "load r1, [r2+r3*8+16]"},
		{MakeMR(STORE, BaseDisp(SP, -8), R1), "store [r15-8], r1"},
		{MakeRM(LOAD, R0, Abs(0x4000)), "load r0, [0x4000]"},
		{withAddr(MakeJCC(CondLT, 0x1000), 0), "jlt 0x1000"},
		{MakeSetCC(CondEQ, R2), "seteq r2"},
		{MakeRR(VHADD, F(1), V(2)), "vhadd f1, v2"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDecodeAllAndDisassemble(t *testing.T) {
	prog := []Instr{
		MakeRI(MOVI, R0, 1),
		MakeRR(ADD, R0, R1),
		MakeNone(RET),
	}
	var buf []byte
	for i := range prog {
		prog[i].Addr = uint64(len(buf)) + 0x100
		var err error
		buf, err = AppendEncode(buf, prog[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeAll(buf, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d instrs, want 3", len(got))
	}
	dis := Disassemble(buf, 0x100, false)
	for _, want := range []string{"movi r0, 1", "add r0, r1", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ins := randInstr(r)
		b, err := Encode(ins)
		if err != nil {
			t.Fatalf("encode %v: %v", ins, err)
		}
		n, err := EncodedLen(ins)
		if err != nil || n != len(b) {
			t.Fatalf("EncodedLen(%v) = %d, %v; encoded %d", ins, n, err, len(b))
		}
	}
}

func TestABISets(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		if CalleeSavedInt(r) == CallerSavedInt(r) {
			t.Errorf("r%d is both or neither callee/caller saved", r)
		}
		if CalleeSavedFloat(r) == CallerSavedFloat(r) {
			t.Errorf("f%d is both or neither callee/caller saved", r)
		}
	}
	if !CalleeSavedInt(SP) {
		t.Error("SP must be callee-saved")
	}
	for _, r := range IntArgRegs {
		if CalleeSavedInt(r) {
			t.Errorf("arg reg %v must be caller-saved", r)
		}
	}
}

func TestIsTerminatorAndBranch(t *testing.T) {
	for _, op := range []Opcode{JMP, JMPR, JCC, RET, HALT} {
		if !IsTerminator(op) {
			t.Errorf("%v should terminate a block", op)
		}
	}
	for _, op := range []Opcode{CALL, CALLR, ADD, NOP} {
		if IsTerminator(op) {
			t.Errorf("%v should not terminate a block", op)
		}
	}
	if !IsBranch(JCC) || IsBranch(CALL) {
		t.Error("IsBranch misclassification")
	}
}

func TestFlagsBitsRoundtrip(t *testing.T) {
	for _, f := range allFlagCombos() {
		if got := FlagsFromBits(f.Bits()); got != f {
			t.Errorf("roundtrip %+v -> %016x -> %+v", f, f.Bits(), got)
		}
	}
}

// TestMaxInstrLen encodes every opcode in every operand form its format
// has — each immediate width, each addressing mode with short and long
// displacements, forced-wide fields — and checks that nothing is longer
// than MaxInstrLen and that something is exactly that long.
func TestMaxInstrLen(t *testing.T) {
	imms := []int64{0, -1, math.MaxInt8, math.MinInt8, math.MaxInt16, math.MinInt16,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	var mems []MemRef
	for _, base := range []Reg{RegNone, R3} {
		for _, index := range []Reg{RegNone, R14} {
			for _, disp := range []int32{0, 1, math.MinInt8, math.MaxInt8 + 1, math.MaxInt32, math.MinInt32} {
				for _, wide := range []bool{false, true} {
					mems = append(mems, MemRef{Base: base, Index: index, Scale: 8, Disp: disp, Wide: wide})
				}
			}
		}
	}
	longest := 0
	check := func(ins Instr) {
		t.Helper()
		b, err := Encode(ins)
		if err != nil {
			t.Fatalf("%v: %v", ins, err)
		}
		if len(b) > MaxInstrLen {
			t.Errorf("%v encodes to %d bytes, MaxInstrLen is %d", ins, len(b), MaxInstrLen)
		}
		if len(b) > longest {
			longest = len(b)
		}
	}
	const far = 1 << 30 // a rel32 target far from Addr 0
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		switch Info(op).Format {
		case FNone:
			check(MakeNone(op))
		case FR:
			check(MakeR(op, R15))
		case FRR:
			check(MakeRR(op, 3, 2))
		case FRI:
			for _, v := range imms {
				check(MakeRI(op, R15, v))
				if v >= math.MinInt32 && v <= math.MaxInt32 {
					ins := MakeRI(op, R15, v)
					ins.Wide = true
					check(ins)
				}
			}
		case FRM:
			for _, m := range mems {
				check(MakeRM(op, 3, m))
			}
		case FMR:
			for _, m := range mems {
				check(MakeMR(op, m, 3))
			}
		case FRel:
			check(MakeRel(op, far))
		case FCC:
			for cc := Cond(0); cc.Valid(); cc++ {
				check(MakeJCC(cc, far))
			}
		case FCCR:
			for cc := Cond(0); cc.Valid(); cc++ {
				check(MakeSetCC(cc, R15))
			}
		default:
			t.Fatalf("%s: format %d not covered", op, Info(op).Format)
		}
	}
	if longest != MaxInstrLen {
		t.Errorf("longest encoding is %d bytes, MaxInstrLen is %d", longest, MaxInstrLen)
	}
}
