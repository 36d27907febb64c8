// Package repro is BREW-Go: a from-scratch reproduction of
//
//	Weidendorfer, Breitbart. "The Case for Binary Rewriting at Runtime for
//	Efficient Implementation of High-Level Programming Models in HPC."
//	IPDPS Workshops (HIPS) 2016.
//
// It provides programmer-controlled binary rewriting at runtime: given a
// compiled function and a configuration declaring which parameters and
// memory regions are fixed, Do produces a specialized drop-in
// replacement — partial evaluation, inlining and controlled loop unrolling
// over machine code.
//
// The machine code is VX64, a simulated 64-bit ISA (see DESIGN.md for why
// and how the simulation substitutes for the paper's x86 hardware). A
// System bundles everything needed end to end:
//
//	sys, _ := repro.NewSystem()
//	prog, _ := sys.CompileC(`
//	    double scale(double *v, long n, double f) { ... }`, nil)
//	fn, _ := prog.FuncAddr("scale")
//
//	cfg := repro.NewConfig().SetParam(2, repro.ParamKnown)
//	res, _ := sys.Do(&repro.Request{Config: cfg, Fn: fn, Args: []uint64{0, 128}})
//	out, _ := sys.CallFloat(res.Addr, []uint64{vec, 128}, nil)
package repro

import (
	"repro/internal/asm"
	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/minc"
	"repro/internal/vm"
)

// Re-exported rewriter types: the stable public surface of the core
// library.
type (
	// Config is the rewriter configuration (the paper's rConf).
	Config = brew.Config
	// FuncOpts are per-function tracing options.
	FuncOpts = brew.FuncOpts
	// ParamClass declares a parameter assumption.
	ParamClass = brew.ParamClass
	// Request is one specialization request: the input of Do.
	Request = brew.Request
	// Outcome is the unified result of Do: specialized, guarded, or
	// degraded.
	Outcome = brew.Outcome
	// Mode selects Do's failure semantics.
	Mode = brew.Mode
	// Effort selects the rewrite tier: full pipeline or quick tier-0.
	Effort = brew.Effort
	// Result describes a successful rewrite.
	Result = brew.Result
	// GuardedResult describes a profile-guarded specialization.
	GuardedResult = brew.GuardedResult
	// ParamGuard is one parameter equality guard.
	ParamGuard = brew.ParamGuard
	// Program is a compiled-and-linked C translation unit.
	Program = minc.Linked
	// Machine is the underlying VX64 system instance.
	Machine = vm.Machine
	// Stats are the machine's execution counters.
	Stats = vm.Stats
)

// Do failure semantics (see brew.Mode).
const (
	// ModeSpecialize fails the request on any pipeline error.
	ModeSpecialize = brew.ModeSpecialize
	// ModeDegrade converts every pipeline error into a degraded Outcome
	// addressing the original function.
	ModeDegrade = brew.ModeDegrade
)

// Rewrite effort tiers (Config.Effort).
const (
	// EffortFull (the zero value) runs the complete pipeline: trace,
	// optimization pass stack, optional vectorization.
	EffortFull = brew.EffortFull
	// EffortQuick is tier-0: trace plus constant folding only, for
	// low-latency installation; pair with a later EffortFull re-rewrite
	// (internal/brewsvc promotes hot entries automatically).
	EffortQuick = brew.EffortQuick
)

// Parameter classes (paper: BREW_UNKNOWN, BREW_KNOWN, BREW_PTR_TOKNOWN).
const (
	ParamUnknown    = brew.ParamUnknown
	ParamKnown      = brew.ParamKnown
	ParamPtrToKnown = brew.ParamPtrToKnown
)

// Rewriting failures; all of them leave the original function usable.
var (
	ErrIndirectJump   = brew.ErrIndirectJump
	ErrTraceTooLong   = brew.ErrTraceTooLong
	ErrTooManyBlocks  = brew.ErrTooManyBlocks
	ErrInlineDepth    = brew.ErrInlineDepth
	ErrCodeBufferFull = brew.ErrCodeBufferFull
	ErrBadCode        = brew.ErrBadCode
	ErrUnsupported    = brew.ErrUnsupported
	ErrBadConfig      = brew.ErrBadConfig
	// ErrDegraded wraps the cause of every ModeDegrade fallback.
	ErrDegraded = brew.ErrDegraded
)

// NewConfig returns a rewriter configuration with library defaults
// (brew_initConf).
func NewConfig() *Config { return brew.NewConfig() }

// System is one simulated machine with compiler, assembler and rewriter
// attached.
type System struct {
	// VM is the underlying machine: memory, cache model, statistics.
	VM *Machine
}

// NewSystem creates a machine with the default address-space layout and
// the default (i7-3740QM-like) cache hierarchy.
func NewSystem() (*System, error) {
	m, err := vm.New()
	if err != nil {
		return nil, err
	}
	return &System{VM: m}, nil
}

// CompileC compiles a minc (C subset) translation unit into the system and
// returns the linked program. Extern declarations resolve against the
// given symbol addresses.
func (s *System) CompileC(src string, externs map[string]uint64) (*Program, error) {
	return minc.CompileAndLink(s.VM, src, externs)
}

// LoadAsm assembles a VX64 assembly program into the system and returns
// its symbol table.
func (s *System) LoadAsm(src string) (*asm.Image, error) {
	return asm.Load(s.VM, src)
}

// Do runs one specialization request, the paper's brew_rewrite: plain,
// guarded (Request.Guards), or never-failing (Request.Mode = ModeDegrade). The returned Outcome.Addr is always a
// drop-in replacement for the requested function.
func (s *System) Do(req *Request) (*Outcome, error) {
	return brew.Do(s.VM, req)
}

// Call invokes a function through the VX64 ABI with integer arguments and
// returns R0.
func (s *System) Call(fn uint64, args ...uint64) (uint64, error) {
	return s.VM.Call(fn, args...)
}

// CallFloat invokes a function and returns F0.
func (s *System) CallFloat(fn uint64, intArgs []uint64, fArgs []float64) (float64, error) {
	return s.VM.CallFloat(fn, intArgs, fArgs)
}

// Disassemble renders n bytes of code at addr.
func (s *System) Disassemble(addr uint64, n int) (string, error) {
	b, err := s.VM.Mem.ReadBytes(addr, n)
	if err != nil {
		return "", err
	}
	return isa.Disassemble(b, addr, false), nil
}

// AllocHeap reserves n bytes of simulated heap and returns the address.
func (s *System) AllocHeap(n uint64) (uint64, error) { return s.VM.AllocHeap(n) }

// WriteF64 / ReadF64 access simulated memory as float64.
func (s *System) WriteF64(addr uint64, v float64) error { return s.VM.Mem.WriteF64(addr, v) }

// ReadF64 reads a float64 from simulated memory.
func (s *System) ReadF64(addr uint64) (float64, error) { return s.VM.Mem.ReadF64(addr) }

// WriteF64Slice stores vals consecutively at addr.
func (s *System) WriteF64Slice(addr uint64, vals []float64) error {
	return s.VM.WriteF64Slice(addr, vals)
}

// ReadF64Slice loads n float64 values starting at addr.
func (s *System) ReadF64Slice(addr uint64, n int) ([]float64, error) {
	return s.VM.ReadF64Slice(addr, n)
}
