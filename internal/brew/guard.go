package brew

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// ParamGuard is one equality condition on an integer parameter (1-based,
// ABI register).
type ParamGuard struct {
	Param int
	Value uint64
}

// GuardedResult describes a guarded specialization.
type GuardedResult struct {
	// Addr is the dispatcher entry: it checks the guards and jumps to the
	// specialized version on match, else to the original function.
	Addr uint64
	// Specialized is the unconditional specialized entry.
	Specialized uint64
	// Rewrite carries the underlying specialization result.
	Rewrite *Result
	// Guards are the equality conditions the dispatcher checks.
	Guards []ParamGuard
	// DispatchSize is the dispatcher code size in bytes (the owner of the
	// JIT allocation at Addr needs it for accounting).
	DispatchSize int

	// Guard accounting: cheap atomics, always on; the adaptive
	// deoptimization policy (internal/specmgr: deopt after N consecutive
	// misses) reads the streak.
	hits    atomic.Uint64
	misses  atomic.Uint64
	mStreak atomic.Uint64
}

// Matches reports whether args satisfy every guard, i.e. whether the
// dispatcher would take the specialized path.
func (g *GuardedResult) Matches(args []uint64) bool {
	for _, gd := range g.Guards {
		if gd.Param > len(args) || args[gd.Param-1] != gd.Value {
			return false
		}
	}
	return true
}

// Hits returns the number of observed guard-matching calls.
func (g *GuardedResult) Hits() uint64 { return g.hits.Load() }

// Misses returns the number of observed guard-missing calls.
func (g *GuardedResult) Misses() uint64 { return g.misses.Load() }

// MissStreak returns the current run of consecutive guard misses; a hit
// resets it. The deopt policy reads this.
func (g *GuardedResult) MissStreak() uint64 { return g.mStreak.Load() }

// Note records one dispatch outcome observed by an external dispatcher:
// hosts that route calls through their own inline-cache code (e.g. the
// specmgr variant chain) instead of the built-in dispatcher at Addr call
// Note to keep the hit/miss/streak accounting — and through it the
// guard-miss-storm deopt policy — working.
func (g *GuardedResult) Note(hit bool) { g.note(hit) }

// note records one dispatch outcome.
func (g *GuardedResult) note(hit bool) {
	if hit {
		g.hits.Add(1)
		g.mStreak.Store(0)
	} else {
		g.misses.Add(1)
		g.mStreak.Add(1)
	}
}

// Call invokes the dispatcher and records guard hit/miss accounting, the
// observability hook for the paper's "check for the parameter actually
// being 42" dispatch.
func (g *GuardedResult) Call(m *vm.Machine, args ...uint64) (uint64, error) {
	g.note(g.Matches(args))
	return m.Call(g.Addr, args...)
}

// CallFloat is Call for kernels returning a floating-point result.
func (g *GuardedResult) CallFloat(m *vm.Machine, intArgs []uint64, fArgs []float64) (float64, error) {
	g.note(g.Matches(intArgs))
	return m.CallFloat(g.Addr, intArgs, fArgs)
}

// guardedRewrite builds a guarded specialization: the specialized body for
// the guard values plus a dispatcher checking the guards and falling back
// to the original function. It runs under Do's recovery barrier and owns
// cfg (a clone), which it augments with ParamKnown per guarded parameter.
// On any failure after the specialized body was generated, its code-buffer
// space is released again — a failing dispatcher install must not leak JIT
// memory.
func guardedRewrite(m *vm.Machine, cfg *Config, fn uint64, guards []ParamGuard, args []uint64, fargs []float64) (*GuardedResult, error) {
	nargs := append([]uint64(nil), args...)
	for _, g := range guards {
		if g.Param < 1 || g.Param > len(isa.IntArgRegs) {
			return nil, fmt.Errorf("%w: guard on parameter %d", ErrBadConfig, g.Param)
		}
		cfg.SetParam(g.Param, ParamKnown)
		for len(nargs) < g.Param {
			nargs = append(nargs, 0)
		}
		nargs[g.Param-1] = g.Value
	}
	res, err := rewrite(m, cfg, fn, nargs, fargs)
	if err != nil {
		return nil, err
	}
	// From here on the specialized body at res.Addr is allocated; give it
	// back on every subsequent failure path.
	installed := false
	defer func() {
		if !installed {
			_ = m.FreeJIT(res.Addr)
		}
	}()

	if err := injectAt(cfg, SiteDispatch); err != nil {
		return nil, err
	}

	// Dispatcher: cmpi argN, value; jne original; ... jmp specialized.
	var ins []isa.Instr
	for _, g := range guards {
		ins = append(ins,
			isa.MakeRI(isa.CMPI, isa.IntArgRegs[g.Param-1], int64(g.Value)),
			isa.MakeJCC(isa.CondNE, fn),
		)
	}
	ins = append(ins, isa.MakeRel(isa.JMP, res.Addr))

	// Size probe: encoded lengths are position-independent (branches are
	// fixed-size rel32), so the final relocated code has the same size.
	size := 0
	for _, in := range ins {
		n, err := isa.EncodedLen(in)
		if err != nil {
			return nil, err
		}
		size += n
	}
	// InstallJIT serializes allocation+installation with concurrent
	// rewrites and releases the reservation itself when encoding fails.
	addr, err := m.InstallJIT(size, func(at uint64) ([]byte, error) {
		var code []byte
		for _, in := range ins {
			in.Addr = at + uint64(len(code))
			var eerr error
			code, eerr = isa.AppendEncode(code, in)
			if eerr != nil {
				return nil, eerr
			}
		}
		return code, nil
	})
	if err != nil {
		if errors.Is(err, mem.ErrNoSpace) {
			return nil, fmt.Errorf("%w: %v", ErrCodeBufferFull, err)
		}
		return nil, err
	}
	installed = true
	return &GuardedResult{
		Addr:         addr,
		Specialized:  res.Addr,
		Rewrite:      res,
		Guards:       append([]ParamGuard(nil), guards...),
		DispatchSize: size,
	}, nil
}
