package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// ErrTooManyArgs reports a call with more arguments than the register ABI
// carries.
var ErrTooManyArgs = errors.New("vm: too many arguments for register ABI")

// DefaultStepLimit bounds top-level calls so runaway generated code cannot
// hang the host; raise via Machine.StepLimit for large benchmarks.
const DefaultStepLimit = 2_000_000_000

func (m *Machine) stepLimit() int64 {
	if m.UserStepLimit > 0 {
		return m.UserStepLimit
	}
	return DefaultStepLimit
}

// Call invokes the function at fn through the VX64 ABI with integer
// arguments and returns the integer result from R0. The machine's register
// file is clobbered as a real call would.
func (m *Machine) Call(fn uint64, args ...uint64) (uint64, error) {
	if err := m.beginCall(fn, args, nil); err != nil {
		return 0, err
	}
	err := m.Run(m.stepLimit())
	if err != nil {
		return 0, err
	}
	return m.CPU.R[isa.IntRet], nil
}

// CallFloat invokes fn and returns the floating-point result from F0.
// Integer arguments go to R1.., floating-point arguments to F1.. per ABI.
func (m *Machine) CallFloat(fn uint64, intArgs []uint64, fArgs []float64) (float64, error) {
	if err := m.beginCall(fn, intArgs, fArgs); err != nil {
		return 0, err
	}
	err := m.Run(m.stepLimit())
	if err != nil {
		return 0, err
	}
	return m.CPU.F[0], nil
}

func (m *Machine) beginCall(fn uint64, intArgs []uint64, fArgs []float64) error {
	if len(intArgs) > len(isa.IntArgRegs) || len(fArgs) > len(isa.FloatArgRegs) {
		return fmt.Errorf("%w: %d int, %d float", ErrTooManyArgs, len(intArgs), len(fArgs))
	}
	for i, v := range intArgs {
		m.CPU.R[isa.IntArgRegs[i]] = v
	}
	for i, v := range fArgs {
		m.CPU.F[isa.FloatArgRegs[i]] = v
	}
	// Align the stack and push the HALT stub as return address.
	m.CPU.R[isa.SP] &^= 7
	m.rearm()
	if _, err := m.push(m.haltAddr); err != nil {
		return err
	}
	if m.Prof != nil {
		// Root the shadow call stack at the entry function; the final RET
		// (to the HALT stub) pops it again.
		m.Prof.stack = m.Prof.stack[:0]
		m.Prof.pushCall(fn)
	}
	m.CPU.PC = fn
	return nil
}

// AllocData reserves n bytes in the globals segment.
func (m *Machine) AllocData(n uint64) (uint64, error) { return m.DataAlloc.Alloc(n) }

// AllocHeap reserves n bytes on the simulated heap.
func (m *Machine) AllocHeap(n uint64) (uint64, error) { return m.HeapAlloc.Alloc(n) }

// WriteF64Slice stores vals consecutively at addr.
func (m *Machine) WriteF64Slice(addr uint64, vals []float64) error {
	for i, v := range vals {
		if err := m.Mem.WriteF64(addr+uint64(8*i), v); err != nil {
			return err
		}
	}
	return nil
}

// ReadF64Slice loads n float64 values starting at addr.
func (m *Machine) ReadF64Slice(addr uint64, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		v, err := m.Mem.ReadF64(addr + uint64(8*i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WriteI64Slice stores vals consecutively at addr.
func (m *Machine) WriteI64Slice(addr uint64, vals []int64) error {
	for i, v := range vals {
		if err := m.Mem.Write64(addr+uint64(8*i), uint64(v)); err != nil {
			return err
		}
	}
	return nil
}
