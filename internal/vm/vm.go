// Package vm implements the VX64 emulator: the execution substrate on which
// both the original compiled functions and the BREW-rewritten functions run.
// It charges a cycle cost per instruction plus memory-hierarchy latency from
// the cache model, standing in for the paper's hardware measurements.
package vm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Default address-space layout.
const (
	CodeBase  = 0x0001_0000
	CodeSize  = 1 << 20
	JITBase   = 0x0020_0000
	JITSize   = 2 << 20
	DataBase  = 0x0040_0000
	DataSize  = 8 << 20
	HeapBase  = 0x0100_0000
	HeapSize  = 64 << 20
	StackTop  = 0x7000_0000
	StackSize = 8 << 20
)

// Execution errors.
var (
	ErrHalted    = errors.New("vm: halted")
	ErrBreak     = errors.New("vm: breakpoint")
	ErrStepLimit = errors.New("vm: step limit exceeded")
)

// CPU is the architectural register state.
type CPU struct {
	R     [isa.NumRegs]uint64
	F     [isa.NumRegs]float64
	V     [isa.NumVRegs][isa.VecLanes]float64
	Flags isa.Flags
	PC    uint64
}

// Stats accumulates execution counters.
type Stats struct {
	Instructions  uint64
	Cycles        uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	TakenBranches uint64
	Calls         uint64
	OpCount       [isa.NumOpcodes]uint64
}

// RegionCost adds extra access latency for an address range; the PGAS
// substrate uses it to model remote-node (RDMA) memory.
type RegionCost struct {
	Base, End uint64 // [Base, End)
	Extra     int    // cycles added per access
	Count     uint64 // accesses observed (updated by the machine)
}

// Machine bundles CPU, memory, cache and allocators into one executable
// system instance.
type Machine struct {
	CPU   CPU
	Mem   *mem.Memory
	Cache *cache.Hierarchy // nil disables memory-latency modeling
	Stats Stats

	CodeAlloc *mem.Allocator // static program code
	JITAlloc  *mem.Allocator // rewriter output
	DataAlloc *mem.Allocator // globals
	HeapAlloc *mem.Allocator // runtime allocations

	// OnLoad/OnStore observe data memory traffic (profiling substrate).
	OnLoad  func(addr uint64, size int)
	OnStore func(addr uint64, size int)
	// OnStoreValue observes every architectural store together with the
	// value written (low size*8 bits; vector stores report one entry per
	// lane). Unlike OnStore it also fires for stack traffic (PUSH, PUSHF
	// and CALL return-address pushes), so a consumer sees the complete,
	// ordered store journal of a run. The differential oracle uses it to
	// compare original and rewritten executions store by store.
	OnStoreValue func(addr uint64, size int, val uint64)
	// OnCall observes CALL/CALLR targets; the profiler uses it for value
	// profiling of arguments.
	OnCall func(target uint64, cpu *CPU)

	// FuncCost charges extra cycles when the given address is called,
	// modeling external routines (e.g. an RDMA transfer helper).
	FuncCost map[uint64]int

	// RegionCosts model slow memory regions.
	RegionCosts []*RegionCost

	// UserStepLimit overrides DefaultStepLimit for Call/CallFloat when
	// positive.
	UserStepLimit int64

	// Prof, when non-nil, samples the PC and simulated call stack every
	// Prof.Interval cycles (see AttachProfiler). Detached it costs nothing
	// of its own: like every hook above it is folded into the one armed
	// check the instruction loop makes. It never charges emulated cycles.
	Prof *Profiler

	// jitMu serializes JIT allocation and installation, allowing several
	// rewrites to run concurrently (their traces only read memory), and
	// with them every change a code write makes to the decoded tables.
	jitMu sync.Mutex

	// watches are the installed write-watchpoints (see watch.go); nil when
	// none are armed.
	watches []*Watch

	// armed summarises every hook above for the instruction loop; see
	// rearm.
	armed bool

	haltAddr uint64

	// Decoded code (code.go): a page directory per executable segment that
	// has executed, the page the last fetch hit, and a count of decodes.
	texts    []*text
	page     *codePage
	pageBase uint64
	decodes  uint64

	// dseg is the segment the last guest load or store touched.
	dseg *mem.Segment
	// jit is the JIT segment (see pinJIT).
	jit *mem.Segment
}

// New builds a machine with the default layout and the default cache
// hierarchy.
func New() (*Machine, error) {
	m := &Machine{
		Mem:      &mem.Memory{},
		Cache:    cache.Default(),
		FuncCost: make(map[uint64]int),
		page:     &noPage,
	}
	layout := [...]struct {
		name string
		base uint64
		size uint64
		perm mem.Perm
	}{
		{"code", CodeBase, CodeSize, mem.PermRX | mem.PermWrite},
		{"jit", JITBase, JITSize, mem.PermRWX},
		{"data", DataBase, DataSize, mem.PermRW},
		{"heap", HeapBase, HeapSize, mem.PermRW},
		{"stack", StackTop - StackSize, StackSize, mem.PermRW},
	}
	var segs [len(layout)]*mem.Segment
	for i, s := range layout {
		seg, err := m.Mem.Map(s.name, s.base, s.size, s.perm)
		if err != nil {
			return nil, err
		}
		segs[i] = seg
	}
	// An allocator bound to its segment commits whatever it hands out. JIT
	// space is committed whole by its first install instead (pinJIT), and
	// the stack commits downward from StackTop as the guest pushes.
	m.CodeAlloc = mem.NewSegmentAllocator(segs[0], 16)
	m.jit = segs[1]
	m.JITAlloc = mem.NewAllocator(JITBase, JITSize, 16)
	m.DataAlloc = mem.NewSegmentAllocator(segs[2], 16)
	m.HeapAlloc = mem.NewSegmentAllocator(segs[3], 16)

	// Reserve a HALT stub used as the return address of top-level calls.
	stub, err := m.CodeAlloc.Alloc(16)
	if err != nil {
		return nil, err
	}
	b, err := isa.Encode(isa.MakeNone(isa.HALT))
	if err != nil {
		return nil, err
	}
	if err := m.Mem.WriteBytes(stub, b); err != nil {
		return nil, err
	}
	m.haltAddr = stub
	m.CPU.R[isa.SP] = StackTop - 64
	return m, nil
}

// MustNew is New for static setups that cannot fail.
func MustNew() *Machine {
	m, err := New()
	if err != nil {
		panic(err)
	}
	return m
}

// HaltAddr returns the address of the reserved HALT stub.
func (m *Machine) HaltAddr() uint64 { return m.haltAddr }

// LoadCode copies encoded instructions into the static code segment and
// returns their address.
func (m *Machine) LoadCode(code []byte) (uint64, error) {
	addr, err := m.CodeAlloc.Alloc(uint64(len(code)))
	if err != nil {
		return 0, err
	}
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	if err := m.writeCode(addr, code); err != nil {
		return 0, err
	}
	return addr, nil
}

// WriteJIT copies rewriter output into the JIT segment at addr (previously
// reserved from JITAlloc) and drops the decodes the write may have changed.
// Like InstallJIT it takes the machine's JIT lock, so a stub patch may race
// installs (the machine must not be executing meanwhile, unless the caller
// is one of its own callbacks).
func (m *Machine) WriteJIT(addr uint64, code []byte) error {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	if err := m.pinJIT(); err != nil {
		return err
	}
	return m.writeCode(addr, code)
}

// pinJIT commits the whole JIT segment, once, before the first byte of
// rewriter output lands in it. JIT space is the one segment written while
// other goroutines read it — an install runs beside the read-back of a body
// installed a moment ago, or beside a trace through JIT-resident code — and
// a window that grew under an install would move under those readers. Every
// read of an installed body happens after the install that pinned the
// segment released jitMu, and nothing moves afterwards. The caller holds
// jitMu.
func (m *Machine) pinJIT() error {
	if uint64(len(m.jit.Data)) == m.jit.Size {
		return nil
	}
	_, err := m.Mem.Slice(m.jit.Base, int(m.jit.Size), mem.PermWrite)
	return err
}

// writeCode is WriteJIT with the JIT lock held.
func (m *Machine) writeCode(addr uint64, code []byte) error {
	if err := m.Mem.WriteBytes(addr, code); err != nil {
		return err
	}
	m.invalidate(addr, addr+uint64(len(code)))
	return nil
}

// InstallJIT reserves size bytes of executable JIT space, calls gen with
// the final address to produce relocated code, and installs it. The whole
// sequence holds the machine's JIT lock, so multiple rewrites may install
// concurrently (the machine must not be executing meanwhile).
func (m *Machine) InstallJIT(size int, gen func(addr uint64) ([]byte, error)) (uint64, error) {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	if err := m.pinJIT(); err != nil {
		return 0, err
	}
	addr, err := m.JITAlloc.Alloc(uint64(size) + 1)
	if err != nil {
		return 0, err
	}
	// Any failure (or panic) past this point must give the reservation
	// back, or repeated failed rewrites leak the code buffer dry.
	installed := false
	defer func() {
		if !installed {
			_ = m.JITAlloc.Free(addr)
		}
	}()
	code, err := gen(addr)
	if err != nil {
		return 0, err
	}
	if len(code) != size {
		return 0, fmt.Errorf("vm: generated code size changed: %d -> %d", size, len(code))
	}
	if err := m.writeCode(addr, code); err != nil {
		return 0, err
	}
	installed = true
	return addr, nil
}
