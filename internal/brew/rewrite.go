package brew

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// injectAt consults the fault-injection hook at a pipeline site.
func injectAt(cfg *Config, site string) error {
	if cfg.Inject == nil {
		return nil
	}
	return cfg.Inject(site)
}

// Result describes a successful rewrite.
type Result struct {
	// Addr is the entry point of the generated function: a drop-in
	// replacement with the original's signature (paper, Section III.E).
	Addr uint64
	// CodeSize is the generated code size in bytes.
	CodeSize int
	// Blocks is the number of captured basic blocks (including
	// compensation trampolines).
	Blocks int
	// TracedInstrs counts original instructions visited during tracing.
	TracedInstrs int
	// Report explains, per basic block and per optimization pass, what the
	// rewriter kept, elided, folded or inlined and why. It is nil on a
	// result adopted from the persistent store, which keeps the report as
	// raw bytes beside its record and decodes them on demand.
	Report *RewriteReport

	// Degraded marks a ModeDegrade fallback: Addr is the original
	// function, not specialized code, and the other fields are zero.
	Degraded bool

	// What Listing renders from: the emitted image (the very buffer the
	// encoder filled; the machine holds its own copy) and one row per
	// block. Both are nil for degraded and store-adopted results.
	image  []byte
	blocks []blockInfo
}

// rewrite is one pipeline pass: trace, optimize, lay out and install.
func rewrite(m *vm.Machine, cfg *Config, fn uint64, args []uint64, fargs []float64) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	budget := cfg.Budget
	cfg = cfg.withBudget()
	t := newTracer(m, cfg)
	if budget != nil && budget.Deadline > 0 {
		t.deadline = time.Now().Add(budget.Deadline)
	}

	// Declared-known memory: explicit ranges plus pointer parameters
	// (the same ranges specmgr freezes under watchpoints).
	t.ranges = append(t.ranges, cfg.FrozenRanges(args)...)

	w0 := newWorld()
	for i, spec := range cfg.intParams {
		if spec.class == ParamUnknown {
			continue
		}
		if i >= len(args) {
			return nil, fmt.Errorf("%w: parameter %d declared known but only %d arguments given", ErrBadConfig, i+1, len(args))
		}
		w0.r[isa.IntArgRegs[i]] = konst(args[i])
	}
	for i, class := range cfg.floatParams {
		if class == ParamUnknown {
			continue
		}
		if i >= len(fargs) {
			return nil, fmt.Errorf("%w: float parameter %d declared known but only %d float arguments given", ErrBadConfig, i+1, len(fargs))
		}
		w0.f[isa.FloatArgRegs[i]] = fval{known: true, val: fargs[i]}
	}

	if err := t.run(fn, w0); err != nil {
		return nil, err
	}

	// Optimization passes over the captured blocks (Section III.G: "we run
	// optimization passes over the newly generated, captured blocks").
	// Tier-0 (EffortQuick) skips the whole pass stack, vectorization
	// included: the trace's constant folding is the entire pipeline, so
	// the SiteOptimize injection point does not exist at this tier.
	if cfg.Effort != EffortQuick {
		if err := injectAt(cfg, SiteOptimize); err != nil {
			return nil, err
		}
		optimize(t.blocks, !t.escapedEver && !t.frameOpaque, cfg.Vectorize, t.rep)
	}

	// Placement is arithmetic (block sizes are known, jumps fixed-width),
	// so the image is encoded exactly once, at its final address, under the
	// machine's JIT lock (several rewrites may run concurrently).
	if err := injectAt(cfg, SiteLayout); err != nil {
		return nil, err
	}
	lay, err := planLayout(t.blocks, cfg.MaxCodeBytes)
	if err != nil {
		return nil, err
	}
	if err := injectAt(cfg, SiteInstall); err != nil {
		return nil, err
	}
	var image []byte
	addr, err := m.InstallJIT(lay.size, func(at uint64) (code []byte, err error) {
		image, err = lay.encode(t.blocks, at)
		return image, err
	})
	if err != nil {
		if errors.Is(err, mem.ErrNoSpace) {
			return nil, fmt.Errorf("%w: %v", ErrCodeBufferFull, err)
		}
		return nil, err
	}
	res := &Result{
		Addr:         addr,
		CodeSize:     lay.size,
		Blocks:       len(t.blocks),
		TracedInstrs: t.tracedN,
		image:        image,
		blocks:       blockTable(t.blocks, lay),
	}
	res.Report = t.rep.build(fn, res, t.blocks)
	res.Report.Effort = cfg.Effort.String()
	return res, nil
}
