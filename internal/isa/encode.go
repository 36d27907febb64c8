package isa

import (
	"errors"
	"fmt"
	"math"
)

// Encoding errors.
var (
	ErrBadInstr  = errors.New("isa: malformed instruction")
	ErrRelRange  = errors.New("isa: branch target out of rel32 range")
	ErrBadReg    = errors.New("isa: bad register")
	ErrBadScale  = errors.New("isa: bad scale")
	ErrBadFormat = errors.New("isa: operand does not match instruction format")
)

// Memory-operand mode bits (low nibble of the register/mode byte).
const (
	memHasBase  = 1 << 0
	memHasIndex = 1 << 1
	memDisp32   = 1 << 2
	memHasDisp  = 1 << 3
)

func immSize(v int64) int {
	switch {
	case v >= math.MinInt8 && v <= math.MaxInt8:
		return 0 // 1 byte
	case v >= math.MinInt16 && v <= math.MaxInt16:
		return 1 // 2 bytes
	case v >= math.MinInt32 && v <= math.MaxInt32:
		return 2 // 4 bytes
	default:
		return 3 // 8 bytes
	}
}

var immBytes = [4]int{1, 2, 4, 8}

// MaxInstrLen is the longest encoding any instruction has: an FRI
// instruction with an 8-byte immediate (opcode, register/size byte,
// immediate). Whoever caches decoded instructions by start address needs
// it: a write at address w can change any instruction that starts in
// [w-(MaxInstrLen-1), w].
const MaxInstrLen = 10

// EncodedLen returns the encoded length of ins in bytes without encoding it.
func EncodedLen(ins Instr) (int, error) {
	info := Info(ins.Op)
	if !ins.Op.Valid() {
		return 0, fmt.Errorf("%w: invalid opcode %d", ErrBadInstr, ins.Op)
	}
	switch info.Format {
	case FNone:
		return 1, nil
	case FR, FRR, FCCR:
		return 2, nil
	case FRI:
		sz, err := friSize(ins)
		if err != nil {
			return 0, err
		}
		return 2 + immBytes[sz], nil
	case FRM:
		n, err := memLen(ins.Src.Mem)
		return 2 + n, err
	case FMR:
		n, err := memLen(ins.Dst.Mem)
		return 2 + n, err
	case FRel:
		return 5, nil
	case FCC:
		return 6, nil
	}
	return 0, ErrBadInstr
}

func memLen(m MemRef) (int, error) {
	if err := checkMem(m); err != nil {
		return 0, err
	}
	n := 0
	if m.HasBase() || m.HasIndex() {
		n++
	}
	if m.HasIndex() {
		n++
	}
	if hasDisp(m) {
		if disp32(m) {
			n += 4
		} else {
			n++
		}
	}
	return n, nil
}

func hasDisp(m MemRef) bool {
	return m.Wide || m.Disp != 0 || (!m.HasBase() && !m.HasIndex())
}

func disp32(m MemRef) bool {
	return m.Wide || m.Disp < math.MinInt8 || m.Disp > math.MaxInt8
}

// friSize picks the immediate width code for an FRI instruction: minimal by
// default, 8 bytes for FMOVI, 4 bytes when Wide is set.
func friSize(ins Instr) (int, error) {
	if ins.Op == FMOVI {
		return 3, nil
	}
	if ins.Wide {
		if ins.Src.Imm < math.MinInt32 || ins.Src.Imm > math.MaxInt32 {
			return 0, fmt.Errorf("%w: wide immediate %d exceeds int32", ErrBadInstr, ins.Src.Imm)
		}
		return 2, nil
	}
	return immSize(ins.Src.Imm), nil
}

func checkMem(m MemRef) error {
	if m.HasBase() && m.Base >= NumRegs {
		return fmt.Errorf("%w: base %d", ErrBadReg, m.Base)
	}
	if m.HasIndex() {
		if m.Index >= NumRegs {
			return fmt.Errorf("%w: index %d", ErrBadReg, m.Index)
		}
		switch m.Scale {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("%w: %d", ErrBadScale, m.Scale)
		}
	}
	return nil
}

func checkReg(o Operand, file RegFile) error {
	if !o.IsReg() {
		return fmt.Errorf("%w: expected register, got %v", ErrBadFormat, o.Kind)
	}
	limit := Reg(NumRegs)
	if file == RFVec {
		limit = NumVRegs
	}
	if o.Reg >= limit {
		return fmt.Errorf("%w: %d (limit %d)", ErrBadReg, o.Reg, limit)
	}
	return nil
}

// AppendEncode appends the binary encoding of ins to dst and returns the
// extended slice. ins.Addr must be set for FRel/FCC instructions because the
// branch displacement is relative to the end of the instruction.
func AppendEncode(dst []byte, ins Instr) ([]byte, error) {
	info := Info(ins.Op)
	if !ins.Op.Valid() {
		return dst, fmt.Errorf("%w: invalid opcode %d", ErrBadInstr, ins.Op)
	}
	dst = append(dst, byte(ins.Op))
	switch info.Format {
	case FNone:
		return dst, nil

	case FR:
		if err := checkReg(ins.Dst, info.DstFile); err != nil {
			return dst, err
		}
		return append(dst, byte(ins.Dst.Reg)), nil

	case FRR:
		if err := checkReg(ins.Dst, info.DstFile); err != nil {
			return dst, err
		}
		if err := checkReg(ins.Src, info.SrcFile); err != nil {
			return dst, err
		}
		return append(dst, byte(ins.Dst.Reg)<<4|byte(ins.Src.Reg)), nil

	case FRI:
		if err := checkReg(ins.Dst, info.DstFile); err != nil {
			return dst, err
		}
		if ins.Src.Kind != KindImm {
			return dst, fmt.Errorf("%w: %s needs immediate source", ErrBadFormat, info.Name)
		}
		sz, err := friSize(ins)
		if err != nil {
			return dst, err
		}
		dst = append(dst, byte(ins.Dst.Reg)<<4|byte(sz))
		return appendInt(dst, ins.Src.Imm, immBytes[sz]), nil

	case FRM:
		if err := checkReg(ins.Dst, info.DstFile); err != nil {
			return dst, err
		}
		if ins.Src.Kind != KindMem {
			return dst, fmt.Errorf("%w: %s needs memory source", ErrBadFormat, info.Name)
		}
		return appendMem(dst, ins.Dst.Reg, ins.Src.Mem)

	case FMR:
		if ins.Dst.Kind != KindMem {
			return dst, fmt.Errorf("%w: %s needs memory destination", ErrBadFormat, info.Name)
		}
		if err := checkReg(ins.Src, info.DstFile); err != nil {
			return dst, err
		}
		return appendMem(dst, ins.Src.Reg, ins.Dst.Mem)

	case FRel:
		rel := int64(ins.Target()) - int64(ins.Addr) - 5
		if rel < math.MinInt32 || rel > math.MaxInt32 {
			return dst, ErrRelRange
		}
		return appendInt(dst, rel, 4), nil

	case FCC:
		if !ins.CC.Valid() {
			return dst, fmt.Errorf("%w: condition %d", ErrBadInstr, ins.CC)
		}
		dst = append(dst, byte(ins.CC))
		rel := int64(ins.Target()) - int64(ins.Addr) - 6
		if rel < math.MinInt32 || rel > math.MaxInt32 {
			return dst, ErrRelRange
		}
		return appendInt(dst, rel, 4), nil

	case FCCR:
		if !ins.CC.Valid() {
			return dst, fmt.Errorf("%w: condition %d", ErrBadInstr, ins.CC)
		}
		if err := checkReg(ins.Dst, RFInt); err != nil {
			return dst, err
		}
		return append(dst, byte(ins.CC)<<4|byte(ins.Dst.Reg)), nil
	}
	return dst, ErrBadInstr
}

// Encode returns the binary encoding of ins.
func Encode(ins Instr) ([]byte, error) {
	return AppendEncode(nil, ins)
}

func appendMem(dst []byte, reg Reg, m MemRef) ([]byte, error) {
	if err := checkMem(m); err != nil {
		return dst, err
	}
	var mode byte
	if m.HasBase() {
		mode |= memHasBase
	}
	if m.HasIndex() {
		mode |= memHasIndex
	}
	d32 := disp32(m)
	hd := hasDisp(m)
	if hd {
		mode |= memHasDisp
		if d32 {
			mode |= memDisp32
		}
	}
	dst = append(dst, byte(reg)<<4|mode)
	if m.HasBase() || m.HasIndex() {
		var b, x byte
		if m.HasBase() {
			b = byte(m.Base)
		}
		if m.HasIndex() {
			x = byte(m.Index)
		}
		dst = append(dst, b<<4|x)
	}
	if m.HasIndex() {
		var lg byte
		for s := m.Scale; s > 1; s >>= 1 {
			lg++
		}
		dst = append(dst, lg)
	}
	if hd {
		if d32 {
			dst = appendInt(dst, int64(m.Disp), 4)
		} else {
			dst = appendInt(dst, int64(m.Disp), 1)
		}
	}
	return dst, nil
}

func appendInt(dst []byte, v int64, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte(v))
		v >>= 8
	}
	return dst
}
