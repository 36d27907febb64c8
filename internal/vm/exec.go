package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Step executes one instruction. It returns ErrHalted on HALT and ErrBreak
// on BRK.
func (m *Machine) Step() error { return m.exec(1) }

// Run executes until HALT, BRK, a fault, or maxSteps instructions
// (maxSteps <= 0 means no limit). HALT returns nil.
func (m *Machine) Run(maxSteps int64) error {
	if maxSteps <= 0 {
		maxSteps = math.MaxInt64
	}
	switch err := m.exec(maxSteps); {
	case err == nil:
		return ErrStepLimit
	case errors.Is(err, ErrHalted):
		return nil
	default:
		return err
	}
}

// rearm recomputes armed: whether anything at all observes or surcharges
// execution. The instruction loop tests this one flag where it would
// otherwise test each hook, so with nothing armed an instruction pays one
// predictable branch for all of them together.
//
// The contract for a new hook: add it here; test m.armed before looking at
// it; call rearm after it returns, because a callback may arm or disarm
// anything, itself included (a watch handler patches code and removes
// watches from inside a store). Hooks are plain exported fields the host
// sets between runs, so exec and beginCall rearm on entry as well.
func (m *Machine) rearm() {
	m.armed = m.Prof != nil || m.OnLoad != nil || m.OnStore != nil || m.OnStoreValue != nil ||
		m.OnCall != nil || len(m.watches) > 0 || len(m.RegionCosts) > 0 || len(m.FuncCost) > 0
}

// fault decorates an execution error with the current PC.
func (m *Machine) fault(err error) error {
	return fmt.Errorf("vm: at pc=0x%x: %w", m.CPU.PC, err)
}

// effAddr computes the effective address of x's memory operand.
func (m *Machine) effAddr(x *xrec) uint64 {
	a := uint64(x.imm)
	if x.base != isa.RegNone {
		a += m.CPU.R[x.base]
	}
	if x.index != isa.RegNone {
		a += m.CPU.R[x.index] * uint64(x.scale)
	}
	return a
}

// segment returns the segment whose committed window holds addr, trying
// the one the last access touched first; nil when addr is unmapped or
// outside its segment's window, which m.Mem sorts out.
func (m *Machine) segment(addr uint64) *mem.Segment {
	if s := m.dseg; s != nil && addr-s.Lo < uint64(len(s.Data)) {
		return s
	}
	s := m.Mem.Find(addr)
	if s == nil || addr-s.Lo >= uint64(len(s.Data)) {
		return nil
	}
	m.dseg = s
	return s
}

// load reads a guest integer of size 1 or 8. Anything but a permitted
// access inside one segment's window goes to m.Mem, which reads zeros
// outside a window and reports the faults.
func (m *Machine) load(addr uint64, size int) (uint64, error) {
	if s := m.segment(addr); s != nil && s.Perm&mem.PermRead != 0 {
		off := addr - s.Lo
		if size == 1 {
			return uint64(s.Data[off]), nil
		}
		if off+8 <= uint64(len(s.Data)) {
			return binary.LittleEndian.Uint64(s.Data[off:]), nil
		}
	}
	return m.Mem.ReadN(addr, size)
}

// store writes the low size bytes (1 or 8) of v. A store into an
// executable segment drops the decodes it may have changed: the guest may
// rewrite its own code.
func (m *Machine) store(addr, v uint64, size int) error {
	s := m.segment(addr)
	if s == nil || s.Perm&mem.PermWrite == 0 {
		return m.storeOutside(addr, v, size)
	}
	off := addr - s.Lo
	if size == 1 {
		s.Data[off] = byte(v)
	} else if off+8 <= uint64(len(s.Data)) {
		binary.LittleEndian.PutUint64(s.Data[off:], v)
	} else {
		return m.storeOutside(addr, v, size)
	}
	if s.Perm&mem.PermExec != 0 {
		m.InvalidateCode(addr, addr+uint64(size))
	}
	return nil
}

// storeOutside is store for anything but a permitted access inside one
// segment's window: m.Mem commits the bytes first, or reports the fault.
func (m *Machine) storeOutside(addr, v uint64, size int) error {
	if err := m.Mem.WriteN(addr, v, size); err != nil {
		return err
	}
	if m.Mem.Find(addr).Perm&mem.PermExec != 0 {
		m.InvalidateCode(addr, addr+uint64(size))
	}
	return nil
}

// chargeMem accounts one completed data access: the counter, the cache
// model's latency and, when armed, the hooks.
func (m *Machine) chargeMem(addr uint64, size int, isStore bool) {
	if m.armed {
		m.chargeMemArmed(addr, size, isStore)
		return
	}
	if isStore {
		m.Stats.Stores++
	} else {
		m.Stats.Loads++
	}
	if m.Cache != nil {
		m.Stats.Cycles += uint64(m.Cache.Access(addr, size))
	}
}

// chargeMemArmed is chargeMem with hooks: counter, OnStore/OnLoad,
// watches, cache, region costs, in that order. Each hook is read when its
// turn comes, so what an earlier callback armed or disarmed takes effect
// within the same access.
func (m *Machine) chargeMemArmed(addr uint64, size int, isStore bool) {
	if isStore {
		m.Stats.Stores++
		if m.OnStore != nil {
			m.OnStore(addr, size)
		}
		if len(m.watches) > 0 {
			m.hitWatches(addr, size)
		}
	} else {
		m.Stats.Loads++
		if m.OnLoad != nil {
			m.OnLoad(addr, size)
		}
	}
	if m.Cache != nil {
		m.Stats.Cycles += uint64(m.Cache.Access(addr, size))
	}
	for _, rc := range m.RegionCosts {
		if addr >= rc.Base && addr < rc.End {
			m.Stats.Cycles += uint64(rc.Extra)
			rc.Count++
		}
	}
	m.rearm()
}

// noteStore reports one completed store to the journal hook, masking the
// value to the bytes actually written.
func (m *Machine) noteStore(addr uint64, size int, val uint64) {
	if !m.armed || m.OnStoreValue == nil {
		return
	}
	if size < 8 {
		val &= 1<<(8*uint(size)) - 1
	}
	m.OnStoreValue(addr, size, val)
	m.rearm()
}

func (m *Machine) push(v uint64) error {
	m.CPU.R[isa.SP] -= 8
	addr := m.CPU.R[isa.SP]
	if err := m.store(addr, v, 8); err != nil {
		return err
	}
	m.chargeMem(addr, 8, true)
	m.noteStore(addr, 8, v)
	return nil
}

func (m *Machine) pop() (uint64, error) {
	addr := m.CPU.R[isa.SP]
	v, err := m.load(addr, 8)
	if err != nil {
		return 0, err
	}
	m.chargeMem(addr, 8, false)
	m.CPU.R[isa.SP] += 8
	return v, nil
}

// exec is the instruction loop behind Step and Run. It executes up to n
// instructions and returns nil when the budget is spent, ErrHalted on HALT
// (PC left on it), ErrBreak on BRK (PC past it), or the fault, decorated
// with the PC of the instruction that raised it.
func (m *Machine) exec(n int64) error {
	m.rearm()
	c := &m.CPU
	for ; n > 0; n-- {
		pc := c.PC
		var x *xrec
		if off := pc - m.pageBase; off < pageSize && m.page.slot[off] != 0 {
			x = &m.page.ins[m.page.slot[off]-1]
		} else {
			var err error
			if x, err = m.fetch(pc); err != nil {
				return m.fault(err)
			}
		}
		next := pc + uint64(x.len)
		m.Stats.Instructions++
		m.Stats.OpCount[x.op]++
		m.Stats.Cycles += uint64(x.cost)
		if m.armed {
			if p := m.Prof; p != nil && m.Stats.Cycles >= p.nextAt {
				p.sample(m.Stats.Cycles, pc)
				m.rearm()
			}
		}

		switch x.op {
		case isa.NOP:

		case isa.HALT:
			return ErrHalted

		case isa.BRK:
			c.PC = next
			return ErrBreak

		// The commonest integer ops take their own cases; the rest of the
		// ALU goes through isa.EvalALU. Both use isa's flag definitions.
		case isa.MOV:
			c.R[x.dst] = c.R[x.src]

		case isa.MOVI:
			c.R[x.dst] = uint64(x.imm)

		case isa.ADD:
			a, b := c.R[x.dst], c.R[x.src]
			c.R[x.dst], c.Flags = a+b, isa.AddFlags(a, b, a+b)

		case isa.ADDI:
			a, b := c.R[x.dst], uint64(x.imm)
			c.R[x.dst], c.Flags = a+b, isa.AddFlags(a, b, a+b)

		case isa.CMP:
			a, b := c.R[x.dst], c.R[x.src]
			c.Flags = isa.SubFlags(a, b, a-b)

		case isa.CMPI:
			a, b := c.R[x.dst], uint64(x.imm)
			c.Flags = isa.SubFlags(a, b, a-b)

		case isa.SUB, isa.IMUL, isa.IDIV, isa.IREM, isa.AND,
			isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.TEST:
			r, fl, writes, err := isa.EvalALU(x.op, c.R[x.dst], c.R[x.src])
			if err != nil {
				return m.fault(err)
			}
			if writes {
				c.R[x.dst] = r
			}
			if isa.SetsFlags(x.op) {
				c.Flags = fl
			}

		case isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI,
			isa.XORI, isa.SHLI, isa.SHRI, isa.SARI:
			r, fl, writes, err := isa.EvalALU(x.op, c.R[x.dst], uint64(x.imm))
			if err != nil {
				return m.fault(err)
			}
			if writes {
				c.R[x.dst] = r
			}
			if isa.SetsFlags(x.op) {
				c.Flags = fl
			}

		case isa.NEG, isa.NOT:
			r, fl, setsFl := isa.EvalALU1(x.op, c.R[x.dst])
			c.R[x.dst] = r
			if setsFl {
				c.Flags = fl
			}

		case isa.LEA:
			c.R[x.dst] = m.effAddr(x)

		case isa.LOAD, isa.LOADB:
			addr := m.effAddr(x)
			size := 8
			if x.op == isa.LOADB {
				size = 1
			}
			v, err := m.load(addr, size)
			if err != nil {
				return m.fault(err)
			}
			m.chargeMem(addr, size, false)
			c.R[x.dst] = v

		case isa.STORE, isa.STOREB:
			addr := m.effAddr(x)
			size := 8
			if x.op == isa.STOREB {
				size = 1
			}
			if err := m.store(addr, c.R[x.src], size); err != nil {
				return m.fault(err)
			}
			m.chargeMem(addr, size, true)
			m.noteStore(addr, size, c.R[x.src])

		case isa.PUSH:
			if err := m.push(c.R[x.dst]); err != nil {
				return m.fault(err)
			}

		case isa.POP:
			v, err := m.pop()
			if err != nil {
				return m.fault(err)
			}
			c.R[x.dst] = v

		case isa.PUSHF:
			if err := m.push(c.Flags.Bits()); err != nil {
				return m.fault(err)
			}

		case isa.POPF:
			v, err := m.pop()
			if err != nil {
				return m.fault(err)
			}
			c.Flags = isa.FlagsFromBits(v)

		case isa.SETCC:
			if x.cc.Holds(c.Flags) {
				c.R[x.dst] = 1
			} else {
				c.R[x.dst] = 0
			}

		case isa.JMP:
			m.Stats.Branches++
			m.Stats.TakenBranches++
			c.PC = uint64(x.imm)
			continue

		case isa.JMPR:
			m.Stats.Branches++
			m.Stats.TakenBranches++
			c.PC = c.R[x.dst]
			continue

		case isa.JCC:
			m.Stats.Branches++
			if x.cc.Holds(c.Flags) {
				m.Stats.TakenBranches++
				m.Stats.Cycles++ // taken-branch penalty
				c.PC = uint64(x.imm)
				continue
			}

		case isa.CALL, isa.CALLR:
			target := uint64(x.imm)
			if x.op == isa.CALLR {
				target = c.R[x.dst]
			}
			m.Stats.Calls++
			if m.armed {
				if m.OnCall != nil {
					m.OnCall(target, c)
				}
				if extra, ok := m.FuncCost[target]; ok {
					m.Stats.Cycles += uint64(extra)
				}
				m.rearm()
			}
			if err := m.push(next); err != nil {
				return m.fault(err)
			}
			if m.armed && m.Prof != nil {
				m.Prof.pushCall(target)
			}
			c.PC = target
			continue

		case isa.RET:
			ra, err := m.pop()
			if err != nil {
				return m.fault(err)
			}
			if m.armed && m.Prof != nil {
				m.Prof.popCall()
			}
			c.PC = ra
			continue

		case isa.FMOV, isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSQRT, isa.FCMP:
			r, fl, writes := isa.EvalFPU(x.op, c.F[x.dst], c.F[x.src])
			if writes {
				c.F[x.dst] = r
			}
			if x.op == isa.FCMP {
				c.Flags = fl
			}

		case isa.FMOVI:
			c.F[x.dst] = math.Float64frombits(uint64(x.imm))

		case isa.FNEG:
			c.F[x.dst] = -c.F[x.dst]

		case isa.FLOAD:
			addr := m.effAddr(x)
			v, err := m.load(addr, 8)
			if err != nil {
				return m.fault(err)
			}
			m.chargeMem(addr, 8, false)
			c.F[x.dst] = math.Float64frombits(v)

		case isa.FSTORE:
			addr := m.effAddr(x)
			if err := m.store(addr, math.Float64bits(c.F[x.src]), 8); err != nil {
				return m.fault(err)
			}
			m.chargeMem(addr, 8, true)
			m.noteStore(addr, 8, math.Float64bits(c.F[x.src]))

		case isa.CVTIF:
			c.F[x.dst] = float64(int64(c.R[x.src]))

		case isa.CVTFI:
			c.R[x.dst] = uint64(int64(c.F[x.src]))

		case isa.FMOVFI:
			c.R[x.dst] = math.Float64bits(c.F[x.src])

		case isa.FMOVIF:
			c.F[x.dst] = math.Float64frombits(c.R[x.src])

		case isa.VLOAD:
			addr := m.effAddr(x)
			for i := 0; i < isa.VecLanes; i++ {
				v, err := m.load(addr+uint64(8*i), 8)
				if err != nil {
					return m.fault(err)
				}
				c.V[x.dst][i] = math.Float64frombits(v)
			}
			m.chargeMem(addr, 8*isa.VecLanes, false)

		case isa.VSTORE:
			addr := m.effAddr(x)
			for i := 0; i < isa.VecLanes; i++ {
				v := math.Float64bits(c.V[x.src][i])
				if err := m.store(addr+uint64(8*i), v, 8); err != nil {
					return m.fault(err)
				}
				m.noteStore(addr+uint64(8*i), 8, v)
			}
			m.chargeMem(addr, 8*isa.VecLanes, true)

		case isa.VADD, isa.VSUB, isa.VMUL:
			for i := 0; i < isa.VecLanes; i++ {
				a, b := c.V[x.dst][i], c.V[x.src][i]
				switch x.op {
				case isa.VADD:
					c.V[x.dst][i] = a + b
				case isa.VSUB:
					c.V[x.dst][i] = a - b
				case isa.VMUL:
					c.V[x.dst][i] = a * b
				}
			}

		case isa.VBCAST:
			for i := 0; i < isa.VecLanes; i++ {
				c.V[x.dst][i] = c.F[x.src]
			}

		case isa.VHADD:
			s := 0.0
			for i := 0; i < isa.VecLanes; i++ {
				s += c.V[x.src][i]
			}
			c.F[x.dst] = s

		default:
			// Unreachable while every valid opcode has a case. The fault
			// names the instruction as isa renders it, re-decoded from the
			// bytes the record was made from, so neither call can fail.
			b, _ := m.Mem.FetchSlice(pc)
			ins, _ := isa.Decode(b, pc)
			return m.fault(fmt.Errorf("unimplemented opcode %s (%v)", x.op, ins))
		}

		c.PC = next
	}
	return nil
}
