package isa

import (
	"errors"
	"math"
)

// ErrDivideByZero is the arithmetic fault raised by IDIV/IREM with a zero
// divisor.
var ErrDivideByZero = errors.New("isa: integer division by zero")

// EvalALU computes the result and flags of a two-operand integer ALU
// operation. It is the single source of truth for arithmetic semantics: the
// emulator executes with it and the rewriter's tracer evaluates known values
// with it, which is what makes specialization semantics-preserving.
//
// Immediate forms evaluate identically to their register forms. CMP and
// TEST return the untouched a as result. The boolean reports whether the
// destination register is written.
func EvalALU(op Opcode, a, b uint64) (result uint64, fl Flags, writes bool, err error) {
	switch op {
	case ADD, ADDI:
		r := a + b
		return r, AddFlags(a, b, r), true, nil
	case SUB, SUBI:
		r := a - b
		return r, SubFlags(a, b, r), true, nil
	case CMP, CMPI:
		r := a - b
		return a, SubFlags(a, b, r), false, nil
	case IMUL, IMULI:
		r := a * b
		fl := logicFlags(r)
		// Signed overflow detection.
		if a != 0 {
			q := int64(r) / int64(a)
			if int64(a) == -1 && int64(r) == math.MinInt64 {
				// MinInt64 / -1 wraps; the product overflowed iff b != MinInt64.
				if int64(b) != math.MinInt64 {
					fl.C, fl.O = true, true
				}
			} else if q != int64(b) {
				fl.C, fl.O = true, true
			}
		}
		return r, fl, true, nil
	case IDIV:
		if b == 0 {
			return 0, Flags{}, false, ErrDivideByZero
		}
		var r int64
		if int64(b) == -1 {
			r = -int64(a) // wraps at MinInt64 like hardware
		} else {
			r = int64(a) / int64(b)
		}
		return uint64(r), logicFlags(uint64(r)), true, nil
	case IREM:
		if b == 0 {
			return 0, Flags{}, false, ErrDivideByZero
		}
		var r int64
		if int64(b) == -1 {
			r = 0
		} else {
			r = int64(a) % int64(b)
		}
		return uint64(r), logicFlags(uint64(r)), true, nil
	case AND, ANDI:
		r := a & b
		return r, logicFlags(r), true, nil
	case OR, ORI:
		r := a | b
		return r, logicFlags(r), true, nil
	case XOR, XORI:
		r := a ^ b
		return r, logicFlags(r), true, nil
	case TEST:
		r := a & b
		return a, logicFlags(r), false, nil
	case SHL, SHLI:
		r := a << (b & 63)
		return r, logicFlags(r), true, nil
	case SHR, SHRI:
		r := a >> (b & 63)
		return r, logicFlags(r), true, nil
	case SAR, SARI:
		r := uint64(int64(a) >> (b & 63))
		return r, logicFlags(r), true, nil
	case MOV, MOVI:
		return b, Flags{}, true, nil
	}
	return 0, Flags{}, false, errors.New("isa: EvalALU: not an ALU op: " + op.String())
}

// EvalALU1 computes single-operand integer operations (NEG, NOT). The
// boolean reports whether the flags are updated: NEG sets them like
// SUB(0, a); NOT leaves them untouched (as on x86).
func EvalALU1(op Opcode, a uint64) (result uint64, fl Flags, setsFlags bool) {
	switch op {
	case NEG:
		r := -a
		return r, SubFlags(0, a, r), true
	case NOT:
		return ^a, Flags{}, false
	}
	return 0, Flags{}, false
}

// EvalFPU computes two-operand floating-point operations. FCMP returns a
// unchanged and only meaningful flags (x86 UCOMISD convention: unordered
// sets Z and C).
func EvalFPU(op Opcode, a, b float64) (result float64, fl Flags, writes bool) {
	switch op {
	case FADD:
		return a + b, Flags{}, true
	case FSUB:
		return a - b, Flags{}, true
	case FMUL:
		return a * b, Flags{}, true
	case FDIV:
		return a / b, Flags{}, true // IEEE semantics: ±Inf / NaN
	case FMOV, FMOVI:
		return b, Flags{}, true
	case FSQRT:
		return math.Sqrt(b), Flags{}, true
	case FCMP:
		var fl Flags
		switch {
		case math.IsNaN(a) || math.IsNaN(b):
			fl.Z, fl.C = true, true
		case a == b:
			fl.Z = true
		case a < b:
			fl.C = true
		}
		return a, fl, false
	}
	return 0, Flags{}, false
}

// AddFlags are the flags of r = a + b. AddFlags, SubFlags and logicFlags
// are the one definition of the integer flags: EvalALU builds on them, and
// so does an executor that takes its own route to an ADD or a CMP.
func AddFlags(a, b, r uint64) Flags {
	return Flags{
		Z: r == 0,
		S: int64(r) < 0,
		C: r < a,
		O: (a^r)&(b^r)>>63 != 0,
	}
}

// SubFlags are the flags of r = a - b (SUB, CMP, NEG as 0 - a).
func SubFlags(a, b, r uint64) Flags {
	return Flags{
		Z: r == 0,
		S: int64(r) < 0,
		C: a < b,
		O: (a^b)&(a^r)>>63 != 0,
	}
}

func logicFlags(r uint64) Flags {
	return Flags{Z: r == 0, S: int64(r) < 0}
}
