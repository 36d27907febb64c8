package brew

import (
	"math/bits"

	"repro/internal/isa"
)

// regRef names a register in a specific file.
type regRef struct {
	file isa.RegFile
	reg  isa.Reg
}

// regMask is a set of registers across all three files in one word: bits
// 0..15 the integer file, 16..31 the floating-point file, 32..47 the vector
// file. Uses, defs and liveness are all regMasks, so the passes' set
// operations are single AND/OR/ANDNOT instructions.
type regMask uint64

const (
	floatShift = isa.NumRegs
	vecShift   = 2 * isa.NumRegs

	intRegs   regMask = 1<<isa.NumRegs - 1
	floatRegs         = intRegs << floatShift
)

func intBit(r isa.Reg) regMask   { return 1 << r }
func floatBit(r isa.Reg) regMask { return 1 << (floatShift + r) }

// regBit returns the one-register set {file:r}; a register of no file is
// the empty set.
func regBit(file isa.RegFile, r isa.Reg) regMask {
	switch file {
	case isa.RFInt:
		return 1 << r
	case isa.RFFloat:
		return 1 << (floatShift + r)
	case isa.RFVec:
		return 1 << (vecShift + r)
	}
	return 0
}

func (r regRef) bit() regMask { return regBit(r.file, r.reg) }

// ints and floats return the registers of one file as a 16-bit set indexed
// by register number, for iteration with nextReg.
func (m regMask) ints() regMask   { return m & intRegs }
func (m regMask) floats() regMask { return m >> floatShift & intRegs }

// nextReg pops the lowest register number from a one-file set.
func (m *regMask) nextReg() isa.Reg {
	r := isa.Reg(bits.TrailingZeros64(uint64(*m)))
	*m &= *m - 1
	return r
}

// memRegs returns the integer registers a memory operand reads.
func memRegs(m isa.MemRef) regMask {
	var out regMask
	if m.HasBase() {
		out |= intBit(m.Base)
	}
	if m.HasIndex() {
		out |= intBit(m.Index)
	}
	return out
}

// readsDstALU reports whether an integer two-operand opcode reads its
// destination.
func readsDstALU(op isa.Opcode) bool {
	return op != isa.MOV && op != isa.MOVI
}

// opShape is what uses and defs need of an opcode's static metadata, in a
// table of this package's own: isa.Info hands out a 40-byte struct by value,
// and the passes ask twice per instruction per sweep.
type opShape struct {
	Format           isa.Format
	DstFile, SrcFile isa.RegFile
}

var opShapes = func() (t [isa.NumOpcodes]opShape) {
	for op := range t {
		info := isa.Info(isa.Opcode(op))
		t[op] = opShape{info.Format, info.DstFile, info.SrcFile}
	}
	return t
}()

// insUses returns the registers an emitted instruction reads.
func insUses(ins *isa.Instr) regMask {
	var out regMask
	info := opShapes[ins.Op]
	switch info.Format {
	case isa.FNone:
		// RET reads the stack; handled as a barrier by passes.
	case isa.FR:
		switch ins.Op {
		case isa.PUSH:
			out = intBit(ins.Dst.Reg) | intBit(isa.SP)
		case isa.POP:
			out = intBit(isa.SP)
		case isa.JMPR, isa.CALLR, isa.NEG, isa.NOT:
			out = intBit(ins.Dst.Reg)
		case isa.FNEG:
			out = floatBit(ins.Dst.Reg)
		}
	case isa.FRR:
		out = regBit(info.SrcFile, ins.Src.Reg)
		switch info.DstFile {
		case isa.RFInt:
			if readsDstALU(ins.Op) {
				out |= intBit(ins.Dst.Reg)
			}
		case isa.RFFloat:
			if ins.Op != isa.FMOV && ins.Op != isa.FSQRT && ins.Op != isa.CVTIF && ins.Op != isa.FMOVIF {
				out |= floatBit(ins.Dst.Reg)
			}
		case isa.RFVec:
			if ins.Op != isa.VBCAST {
				out |= regBit(isa.RFVec, ins.Dst.Reg)
			}
		}
	case isa.FRI:
		if readsDstALU(ins.Op) && ins.Op != isa.FMOVI {
			out = regBit(info.DstFile, ins.Dst.Reg)
		}
	case isa.FRM:
		out = memRegs(ins.Src.Mem)
	case isa.FMR:
		out = regBit(info.DstFile, ins.Src.Reg) | memRegs(ins.Dst.Mem)
	case isa.FRel, isa.FCC, isa.FCCR:
	}
	return out
}

// insDefs returns the registers an emitted instruction writes.
func insDefs(ins *isa.Instr) regMask {
	info := opShapes[ins.Op]
	switch ins.Op {
	case isa.CMP, isa.CMPI, isa.TEST, isa.FCMP, isa.STORE, isa.STOREB,
		isa.FSTORE, isa.VSTORE, isa.JMP, isa.JMPR, isa.JCC, isa.RET,
		isa.NOP, isa.HALT, isa.BRK:
		return 0
	case isa.PUSH:
		return intBit(isa.SP)
	case isa.POP:
		return regBit(info.DstFile, ins.Dst.Reg) | intBit(isa.SP)
	case isa.CALL, isa.CALLR:
		// Calls clobber all caller-saved registers; passes treat them as
		// barriers instead of enumerating defs.
		return 0
	}
	switch info.Format {
	case isa.FR, isa.FRR, isa.FRI, isa.FRM, isa.FCCR:
		return regBit(info.DstFile, ins.Dst.Reg)
	}
	return 0
}

// isBarrier reports whether an instruction must not be reordered or
// analyzed across by local passes (calls, returns, indirect jumps).
func isBarrier(op isa.Opcode) bool {
	switch op {
	case isa.CALL, isa.CALLR, isa.RET, isa.JMP, isa.JMPR, isa.JCC, isa.HALT, isa.BRK:
		return true
	}
	return false
}
