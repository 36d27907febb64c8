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
// executable segment drops the decodes it may have changed, and says so:
// the guest may rewrite its own code, even the rest of the run it is in.
func (m *Machine) store(addr, v uint64, size int) (code bool, err error) {
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
		return true, nil
	}
	return false, nil
}

// storeOutside is store for anything but a permitted access inside one
// segment's window: m.Mem commits the bytes first, or reports the fault.
func (m *Machine) storeOutside(addr, v uint64, size int) (code bool, err error) {
	if err := m.Mem.WriteN(addr, v, size); err != nil {
		return false, err
	}
	if m.Mem.Find(addr).Perm&mem.PermExec != 0 {
		m.InvalidateCode(addr, addr+uint64(size))
		return true, nil
	}
	return false, nil
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
// within the same access; the armed flag is recomputed when a callback
// ran.
func (m *Machine) chargeMemArmed(addr uint64, size int, isStore bool) {
	called := false
	if isStore {
		m.Stats.Stores++
		if m.OnStore != nil {
			m.OnStore(addr, size)
			called = true
		}
		if len(m.watches) > 0 && m.hitWatches(addr, size) {
			called = true
		}
	} else {
		m.Stats.Loads++
		if m.OnLoad != nil {
			m.OnLoad(addr, size)
			called = true
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
	if called {
		m.rearm()
	}
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

// read is one whole guest load of an integer of size 1 or 8: the value,
// then its charge. It and write keep the loop to one call per access: each
// call from the loop spills what the loop holds in registers.
func (m *Machine) read(addr uint64, size int) (uint64, error) {
	v, err := m.load(addr, size)
	if err == nil {
		m.chargeMem(addr, size, false)
	}
	return v, err
}

// write is one whole guest store of the low size bytes of v: the bytes,
// their charge and the journal entry. code reports a store into an
// executable segment.
func (m *Machine) write(addr, v uint64, size int) (code bool, err error) {
	if code, err = m.store(addr, v, size); err == nil {
		m.chargeMem(addr, size, true)
		m.noteStore(addr, size, v)
	}
	return code, err
}

func (m *Machine) push(v uint64) (code bool, err error) {
	m.CPU.R[isa.SP] -= 8
	return m.write(m.CPU.R[isa.SP], v, 8)
}

func (m *Machine) pop() (uint64, error) {
	v, err := m.read(m.CPU.R[isa.SP], 8)
	if err == nil {
		m.CPU.R[isa.SP] += 8
	}
	return v, err
}

// cut gives back what a run charged for its records the loop will not
// execute (rest): their instructions, their base cycles and, returned,
// their share of the budget.
func (m *Machine) cut(rest []xrec) int64 {
	var cost uint64
	for i := range rest {
		cost += uint64(rest[i].cost)
	}
	m.Stats.Instructions -= uint64(len(rest))
	m.Stats.Cycles -= cost
	return int64(len(rest))
}

// abort ends a run at a fault raised by the instruction at pc: it gives
// back the records after that one, leaves the PC on it and decorates err.
func (m *Machine) abort(pc uint64, rest []xrec, err error) error {
	m.cut(rest)
	m.CPU.PC = pc
	return m.fault(err)
}

// exec is the instruction loop behind Step and Run. It executes up to n
// instructions and returns nil when the budget is spent, ErrHalted on HALT
// (PC left on it), ErrBreak on BRK (PC past it), or the fault, decorated
// with the PC of the instruction that raised it.
//
// It works a straight-line run at a time (code.go). When nothing is armed
// and the budget covers the run, its instructions, base cycles and budget
// are charged up front and its records executed in order; a fault, or a
// store into code, stops the run after the instruction at hand and gives
// back the rest. Otherwise — a hook armed, which may read Stats at any
// instruction, or a budget ending inside the run — the run is cut to its
// first record: Step is a run of length one. Within a run the PC lives in
// a local: it reaches CPU.PC at the end of the run, at a fault, and at HALT
// and BRK, which is all that reads it there — a hook sees it current, since
// an armed machine's runs are one record long.
func (m *Machine) exec(n int64) error {
	m.rearm()
	c := &m.CPU
	for n > 0 {
		pc := c.PC
		pg := m.page
		var j int
		if off := pc - m.pageBase; off < pageSize && pg.slot[off] != 0 {
			j = int(pg.slot[off]) - 1
		} else {
			var err error
			if pg, j, err = m.fetch(pc); err != nil {
				return m.fault(err)
			}
		}
		run := pg.ins[j : j+1]
		if x := &run[0]; !m.armed && int64(x.rest) <= n {
			run = pg.ins[j : j+int(x.rest)]
			n -= int64(x.rest)
			m.Stats.Instructions += uint64(x.rest)
			m.Stats.Cycles += uint64(x.restCost)
		} else {
			n--
			m.Stats.Instructions++
			m.Stats.Cycles += uint64(x.cost)
			if p := m.Prof; m.armed && p != nil && m.Stats.Cycles >= p.nextAt {
				p.sample(m.Stats.Cycles, pc)
				m.rearm()
			}
		}

		for i := 0; i < len(run); i++ {
			x := &run[i]
			next := pc + uint64(x.len)
			m.Stats.OpCount[x.op]++

			switch x.op {
			case isa.NOP:

			case isa.HALT:
				c.PC = pc
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
					return m.abort(pc, run[i+1:], err)
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
					return m.abort(pc, run[i+1:], err)
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
				v, err := m.read(addr, size)
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				c.R[x.dst] = v

			case isa.STORE, isa.STOREB:
				addr := m.effAddr(x)
				size := 8
				if x.op == isa.STOREB {
					size = 1
				}
				code, err := m.write(addr, c.R[x.src], size)
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				if code {
					n += m.cut(run[i+1:])
					run = run[:i+1]
				}

			case isa.PUSH:
				code, err := m.push(c.R[x.dst])
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				if code {
					n += m.cut(run[i+1:])
					run = run[:i+1]
				}

			case isa.POP:
				v, err := m.pop()
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				c.R[x.dst] = v

			case isa.PUSHF:
				code, err := m.push(c.Flags.Bits())
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				if code {
					n += m.cut(run[i+1:])
					run = run[:i+1]
				}

			case isa.POPF:
				v, err := m.pop()
				if err != nil {
					return m.abort(pc, run[i+1:], err)
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
				next = uint64(x.imm)

			case isa.JMPR:
				m.Stats.Branches++
				m.Stats.TakenBranches++
				next = c.R[x.dst]

			case isa.JCC:
				m.Stats.Branches++
				if x.cc.Holds(c.Flags) {
					m.Stats.TakenBranches++
					m.Stats.Cycles++ // taken-branch penalty
					next = uint64(x.imm)
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
				if _, err := m.push(next); err != nil {
					return m.abort(pc, nil, err) // CALL ends its run
				}
				if m.armed && m.Prof != nil {
					m.Prof.pushCall(target)
				}
				next = target

			case isa.RET:
				ra, err := m.pop()
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				if m.armed && m.Prof != nil {
					m.Prof.popCall()
				}
				next = ra

			// The commonest float ops take their own cases too; the rest
			// go through isa.EvalFPU.
			case isa.FMOV:
				c.F[x.dst] = c.F[x.src]

			case isa.FADD:
				c.F[x.dst] += c.F[x.src]

			case isa.FSUB:
				c.F[x.dst] -= c.F[x.src]

			case isa.FMUL:
				c.F[x.dst] *= c.F[x.src]

			case isa.FDIV, isa.FSQRT, isa.FCMP:
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
				v, err := m.read(addr, 8)
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				c.F[x.dst] = math.Float64frombits(v)

			case isa.FSTORE:
				addr := m.effAddr(x)
				code, err := m.write(addr, math.Float64bits(c.F[x.src]), 8)
				if err != nil {
					return m.abort(pc, run[i+1:], err)
				}
				if code {
					n += m.cut(run[i+1:])
					run = run[:i+1]
				}

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
				for l := 0; l < isa.VecLanes; l++ {
					v, err := m.load(addr+uint64(8*l), 8)
					if err != nil {
						return m.abort(pc, run[i+1:], err)
					}
					c.V[x.dst][l] = math.Float64frombits(v)
				}
				m.chargeMem(addr, 8*isa.VecLanes, false)

			case isa.VSTORE:
				addr := m.effAddr(x)
				code := false
				for l := 0; l < isa.VecLanes; l++ {
					v := math.Float64bits(c.V[x.src][l])
					wrote, err := m.store(addr+uint64(8*l), v, 8)
					if err != nil {
						return m.abort(pc, run[i+1:], err)
					}
					code = code || wrote
					m.noteStore(addr+uint64(8*l), 8, v)
				}
				m.chargeMem(addr, 8*isa.VecLanes, true)
				if code {
					n += m.cut(run[i+1:])
					run = run[:i+1]
				}

			case isa.VADD, isa.VSUB, isa.VMUL:
				for l := 0; l < isa.VecLanes; l++ {
					a, b := c.V[x.dst][l], c.V[x.src][l]
					switch x.op {
					case isa.VADD:
						c.V[x.dst][l] = a + b
					case isa.VSUB:
						c.V[x.dst][l] = a - b
					case isa.VMUL:
						c.V[x.dst][l] = a * b
					}
				}

			case isa.VBCAST:
				for l := 0; l < isa.VecLanes; l++ {
					c.V[x.dst][l] = c.F[x.src]
				}

			case isa.VHADD:
				s := 0.0
				for l := 0; l < isa.VecLanes; l++ {
					s += c.V[x.src][l]
				}
				c.F[x.dst] = s

			default:
				// Unreachable while every valid opcode has a case. The fault
				// names the instruction as isa renders it, re-decoded from the
				// bytes the record was made from, so neither call can fail.
				b, _ := m.Mem.FetchSlice(pc)
				ins, _ := isa.Decode(b, pc)
				return m.abort(pc, run[i+1:], fmt.Errorf("unimplemented opcode %s (%v)", x.op, ins))
			}

			pc = next
		}
		c.PC = pc
	}
	return nil
}
