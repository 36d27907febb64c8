// Package brew implements the paper's contribution: a minimal, low-level
// API for programmer-controlled binary rewriting at runtime ("BREW", Binary
// REWriting). Given the address of a compiled function and a configuration
// declaring which parameters and memory regions may be assumed constant,
// Do traces the function's machine code instruction by instruction,
// maintains a known-world state, and captures a specialized version:
// operations on known values are evaluated at rewrite time (automatic
// constant propagation / partial evaluation), calls with known targets are
// inlined, and loop unrolling is controlled per function (paper, Section
// III).
//
// Failure is never catastrophic: every error leaves the original function
// intact and usable (Section III.G).
package brew

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/isa"
)

// Rewriting failures. All of them mean "keep using the original function".
var (
	// ErrIndirectJump reports an indirect jump whose target is not known at
	// rewrite time (paper: "we currently signal failure if we trace an
	// indirect unknown jump").
	ErrIndirectJump = errors.New("brew: indirect jump to unknown target")
	// ErrTraceTooLong reports that tracing exceeded Config.MaxTracedInstrs.
	ErrTraceTooLong = errors.New("brew: trace exceeds instruction budget")
	// ErrTooManyBlocks reports that block discovery exceeded
	// Config.MaxBlocks.
	ErrTooManyBlocks = errors.New("brew: too many basic blocks")
	// ErrInlineDepth reports that inlining exceeded Config.MaxInlineDepth.
	ErrInlineDepth = errors.New("brew: inline depth exceeded")
	// ErrCodeBufferFull reports that the generated code exceeds the
	// configured buffer size (paper: "when buffers run out of space").
	ErrCodeBufferFull = errors.New("brew: code buffer full")
	// ErrBadCode reports undecodable or ill-formed input code.
	ErrBadCode = errors.New("brew: cannot decode input code")
	// ErrUnsupported reports a traced construct the rewriter does not
	// handle (e.g. SP escaping into arbitrary arithmetic).
	ErrUnsupported = errors.New("brew: unsupported construct")
	// ErrBadConfig reports an invalid configuration.
	ErrBadConfig = errors.New("brew: invalid configuration")
	// ErrDeadline reports that a rewrite exceeded its wall-clock budget
	// (Budget.Deadline).
	ErrDeadline = errors.New("brew: rewrite wall-clock deadline exceeded")
	// ErrRewritePanic reports an internal rewriter panic converted into an
	// error: the host keeps running and the original function stays valid.
	ErrRewritePanic = errors.New("brew: rewrite panicked")
	// ErrDegraded marks a rewrite failure converted into transparent
	// fallback by Do under ModeDegrade: the returned Outcome addresses the
	// original function. It always wraps the underlying cause.
	ErrDegraded = errors.New("brew: specialization degraded to original")
)

// ParamClass declares the rewriter's assumption about one parameter
// (paper: BREW_KNOWN, BREW_PTR_TOKNOWN; unknown is the default).
type ParamClass uint8

// Parameter classes.
const (
	// ParamUnknown: the parameter is a runtime value (default).
	ParamUnknown ParamClass = iota
	// ParamKnown: the value passed to Do is assumed constant in the
	// specialized version; callers of the result must pass the same value
	// (they may also pass anything if the function provably ignores it, as
	// the paper's Figure 3 does — the specialized code never reads it).
	ParamKnown
	// ParamPtrToKnown: like ParamKnown, and additionally the Size bytes
	// the pointer refers to are assumed constant data (the paper marks the
	// stencil struct this way).
	ParamPtrToKnown
)

// paramSpec is one parameter assumption.
type paramSpec struct {
	class ParamClass
	size  uint64 // for ParamPtrToKnown
}

// MemRange marks [Start, End) as known, fixed data.
type MemRange struct {
	Start, End uint64
}

// FuncOpts carries per-function tracing options, keyed by the function's
// start address (paper, Section III.C: "a rewriter configuration provides
// the options for functions given their start address").
type FuncOpts struct {
	// NoInline keeps calls to this function as calls in the generated code
	// instead of tracing into it; the rewriter emits compensation making
	// ABI argument registers materialized and treats caller-saved
	// registers as dead afterwards.
	NoInline bool
	// BranchesUnknown treats every conditional jump in the function as
	// having an unknown condition, even when the flags are known. This is
	// the paper's switch for avoiding complete loop unrolling.
	BranchesUnknown bool
	// ResultsUnknown forces every value created by an operation in the
	// function to be unknown (parameters keep their state). The paper's
	// "brute force approach" from Section V.C.
	ResultsUnknown bool
	// MaxVariants overrides Config.MaxVariantsPerAddr for blocks of this
	// function when positive.
	MaxVariants int
	// UnrollFactor enables the paper's controlled unrolling ("With
	// controlled unrolling (such as four-times) ...", Section V.B): loops
	// with known trip state are peeled this many times and then close
	// into a residual loop via known-world-state generalization. It is
	// sugar for BranchesUnknown with MaxVariants set to the factor.
	UnrollFactor int
}

// normalized resolves option sugar.
func (o FuncOpts) normalized() FuncOpts {
	if o.UnrollFactor > 0 {
		o.BranchesUnknown = true
		if o.MaxVariants == 0 {
			o.MaxVariants = o.UnrollFactor
		}
	}
	return o
}

// Budget tightens the resource bounds of one rewrite attempt beyond the
// structural Config limits. A server calling Do on a hot path sets a
// Budget so a pathological specialization request degrades to the generic
// function quickly instead of stalling the host. Zero fields are "no extra
// bound"; non-zero fields only ever lower the corresponding Config limit.
type Budget struct {
	// MaxTracedInstrs caps instructions visited during tracing.
	MaxTracedInstrs int
	// MaxEmittedBytes caps generated code size (tightens MaxCodeBytes).
	MaxEmittedBytes int
	// Deadline caps wall-clock time spent tracing. Checked every 1024
	// traced instructions, so overshoot is bounded by a short burst.
	Deadline time.Duration
}

// Injection/observation sites for the Config.Inject hook, in pipeline
// order. internal/faultinject arms deterministic faults at these points.
const (
	// SiteTrace fires before every traced instruction.
	SiteTrace = "trace"
	// SiteOptimize fires before the optimization passes.
	SiteOptimize = "optimize"
	// SiteLayout fires before the layout/size probe.
	SiteLayout = "layout"
	// SiteInstall fires before JIT allocation and installation.
	SiteInstall = "install"
	// SiteDispatch fires before guard-dispatcher installation (guarded
	// requests only).
	SiteDispatch = "dispatch"
)

// Config configures one Do call. The zero value is NOT usable; call
// NewConfig (the analogue of the paper's brew_initConf).
//
// A configuration may be shared read-only between goroutines: Do,
// Fingerprint and Clone only read it. Fingerprint is memoized; every
// setter and any change to an exported field it hashes invalidates the
// remembered value, so the next call hashes again.
type Config struct {
	intParams   [len(isa.IntArgRegs)]paramSpec
	floatParams [len(isa.FloatArgRegs)]ParamClass
	knownRanges []MemRange
	funcOpts    map[uint64]FuncOpts
	dynMarkers  map[uint64]bool

	// gen counts the setter calls, which write the unexported state above.
	// fp points at the memo of the last Fingerprint (see fingerprint.go).
	// The first memo lives in memo, claimed through memoUsed and never
	// written again, so a configuration fingerprinted once after it is
	// built remembers its value without allocating.
	gen      uint64
	fp       atomic.Pointer[fpMemo]
	memoUsed atomic.Bool
	memo     fpMemo

	// Defaults applies to every function without explicit FuncOpts.
	Defaults FuncOpts

	// MaxTracedInstrs bounds total traced instructions (default 4M).
	MaxTracedInstrs int
	// MaxBlocks bounds discovered basic-block variants (default 4096).
	MaxBlocks int
	// MaxInlineDepth bounds the shadow-stack depth (default 32).
	MaxInlineDepth int
	// MaxVariantsPerAddr is the paper's threshold for specialized versions
	// of the same original code; reaching it triggers known-world-state
	// migration (default 16).
	MaxVariantsPerAddr int
	// MaxCodeBytes bounds the generated code size (default 256 KiB).
	MaxCodeBytes int

	// EntryHandler, if nonzero, is a function address called on entry of
	// the rewritten function (profiling injection, Section III.D).
	EntryHandler uint64
	// ExitHandler, if nonzero, is called right before every return.
	ExitHandler uint64
	// LoadHandler/StoreHandler, if nonzero, are called before every
	// emitted data load/store with the effective address in R9 (Section
	// III.D: "Other interesting points for callbacks include memory
	// accesses"; Section VIII uses this to detect remote accesses). The
	// handler contract: R9 holds the address, all registers including R9
	// must be preserved, only the flags may be clobbered. R9's previous
	// value is saved and restored around the callback by generated code.
	LoadHandler  uint64
	StoreHandler uint64

	// Budget, when non-nil, tightens the structural limits for this
	// rewrite attempt (see Budget). The original function is unaffected by
	// a budget-exhausted attempt.
	Budget *Budget

	// Inject, when non-nil, is consulted at the named pipeline sites
	// (Site* constants). A non-nil return fails the site with that error;
	// a panicking hook exercises the panic-recovery path. This is the
	// deterministic fault-injection seam internal/faultinject drives; it
	// must be nil in production configurations.
	Inject func(site string) error

	// Vectorize enables the greedy vectorization pass over the captured
	// straight-line code (the paper's planned Section IV/V.B pass).
	// Horizontal reduction reassociates floating-point additions, so
	// results may differ in the last bits from the original — the same
	// contract as a compiler's -ffast-math.
	Vectorize bool

	// Effort selects the rewrite tier. The zero value, EffortFull, is
	// today's complete pipeline. EffortQuick (tier-0) skips the
	// optimization pass stack and vectorization — fastest
	// time-to-first-specialized-call, observably equivalent code.
	Effort Effort
}

// NewConfig returns a Config with library defaults (brew_initConf).
func NewConfig() *Config {
	return &Config{
		funcOpts:           make(map[uint64]FuncOpts),
		dynMarkers:         make(map[uint64]bool),
		MaxTracedInstrs:    4 << 20,
		MaxBlocks:          4096,
		MaxInlineDepth:     32,
		MaxVariantsPerAddr: 16,
		MaxCodeBytes:       256 << 10,
	}
}

// SetParam declares integer parameter i (1-based, as in the paper's
// brew_setpar) known or unknown.
func (c *Config) SetParam(i int, class ParamClass) *Config {
	c.gen++
	if i >= 1 && i <= len(c.intParams) && class != ParamPtrToKnown {
		c.intParams[i-1] = paramSpec{class: class}
	}
	return c
}

// SetParamPtrToKnown declares integer parameter i a pointer to size bytes
// of known, fixed data (BREW_PTR_TOKNOWN). The size argument makes the
// extent explicit, which the paper leaves implicit in its C prototype.
func (c *Config) SetParamPtrToKnown(i int, size uint64) *Config {
	c.gen++
	if i >= 1 && i <= len(c.intParams) {
		c.intParams[i-1] = paramSpec{class: ParamPtrToKnown, size: size}
	}
	return c
}

// SetFloatParam declares floating-point parameter i (1-based) known or
// unknown.
func (c *Config) SetFloatParam(i int, class ParamClass) *Config {
	c.gen++
	if i >= 1 && i <= len(c.floatParams) && class != ParamPtrToKnown {
		c.floatParams[i-1] = class
	}
	return c
}

// IntParamClass returns the declared class of integer parameter i
// (1-based) and, for ParamPtrToKnown, the declared pointee size. Out-of-
// range indices are ParamUnknown. The differential oracle uses this to
// generate argument vectors consistent with the configuration.
func (c *Config) IntParamClass(i int) (ParamClass, uint64) {
	if i < 1 || i > len(c.intParams) {
		return ParamUnknown, 0
	}
	s := c.intParams[i-1]
	return s.class, s.size
}

// FloatParamClass returns the declared class of floating-point parameter i
// (1-based); out-of-range indices are ParamUnknown.
func (c *Config) FloatParamClass(i int) ParamClass {
	if i < 1 || i > len(c.floatParams) {
		return ParamUnknown
	}
	return c.floatParams[i-1]
}

// FrozenRanges returns the memory ranges a specialization built under the
// given rewrite-time arguments assumes frozen: the explicit SetMemRange
// ranges plus the pointee range of every ParamPtrToKnown parameter. The
// specialization manager (internal/specmgr) arms write-watchpoints over
// exactly these ranges, so any store into them deoptimizes the stale code.
func (c *Config) FrozenRanges(args []uint64) []MemRange {
	out := append([]MemRange(nil), c.knownRanges...)
	for i, spec := range c.intParams {
		if spec.class == ParamPtrToKnown && spec.size > 0 && i < len(args) {
			out = append(out, MemRange{Start: args[i], End: args[i] + spec.size})
		}
	}
	return out
}

// SetMemRange marks [start, end) as known, fixed data (brew_setmem).
func (c *Config) SetMemRange(start, end uint64) *Config {
	c.gen++
	if start < end {
		c.knownRanges = append(c.knownRanges, MemRange{start, end})
	}
	return c
}

// SetFuncOpts attaches per-function options to the function starting at
// addr (which may be the rewritten function itself).
func (c *Config) SetFuncOpts(addr uint64, opts FuncOpts) *Config {
	c.gen++
	c.funcOpts[addr] = opts
	return c
}

// MarkDynamic registers fn as a makeDynamic marker: a call to it is
// replaced by "result = argument, result unknown" (paper, Section V.C).
func (c *Config) MarkDynamic(fn uint64) *Config {
	c.gen++
	c.dynMarkers[fn] = true
	return c
}

func (c *Config) optsFor(addr uint64) FuncOpts {
	if o, ok := c.funcOpts[addr]; ok {
		return o.normalized()
	}
	return c.Defaults.normalized()
}

func (c *Config) inKnownRange(addr uint64, size int) bool {
	end := addr + uint64(size)
	for _, r := range c.knownRanges {
		if addr >= r.Start && end <= r.End {
			return true
		}
	}
	return false
}

func (c *Config) maxVariants(opts FuncOpts) int {
	if opts.MaxVariants > 0 {
		return opts.MaxVariants
	}
	return c.MaxVariantsPerAddr
}

func (c *Config) validate() error {
	if c.funcOpts == nil || c.dynMarkers == nil {
		return errors.Join(ErrBadConfig, errors.New("use NewConfig"))
	}
	if c.MaxTracedInstrs <= 0 || c.MaxBlocks <= 0 || c.MaxInlineDepth <= 0 ||
		c.MaxVariantsPerAddr <= 0 || c.MaxCodeBytes <= 0 {
		return errors.Join(ErrBadConfig, errors.New("non-positive limit"))
	}
	if b := c.Budget; b != nil &&
		(b.MaxTracedInstrs < 0 || b.MaxEmittedBytes < 0 || b.Deadline < 0) {
		return errors.Join(ErrBadConfig, errors.New("negative budget"))
	}
	if !c.Effort.valid() {
		return errors.Join(ErrBadConfig, errors.New("unknown effort"))
	}
	return nil
}

// withBudget returns the effective configuration: a shallow copy with the
// structural limits tightened to the budget (never loosened). The copy
// shares the option maps and ranges, which are not mutated by tracing.
func (c *Config) withBudget() *Config {
	b := c.Budget
	if b == nil {
		return c
	}
	cc := c.shallowCopy()
	if b.MaxTracedInstrs > 0 && b.MaxTracedInstrs < cc.MaxTracedInstrs {
		cc.MaxTracedInstrs = b.MaxTracedInstrs
	}
	if b.MaxEmittedBytes > 0 && b.MaxEmittedBytes < cc.MaxCodeBytes {
		cc.MaxCodeBytes = b.MaxEmittedBytes
	}
	return cc
}

// shallowCopy copies every field but the fingerprint memo, which the
// caller carries over or leaves empty. The maps, the range slice and the
// Budget are shared with c.
func (c *Config) shallowCopy() *Config {
	return &Config{
		intParams:          c.intParams,
		floatParams:        c.floatParams,
		knownRanges:        c.knownRanges,
		funcOpts:           c.funcOpts,
		dynMarkers:         c.dynMarkers,
		gen:                c.gen,
		Defaults:           c.Defaults,
		MaxTracedInstrs:    c.MaxTracedInstrs,
		MaxBlocks:          c.MaxBlocks,
		MaxInlineDepth:     c.MaxInlineDepth,
		MaxVariantsPerAddr: c.MaxVariantsPerAddr,
		MaxCodeBytes:       c.MaxCodeBytes,
		EntryHandler:       c.EntryHandler,
		ExitHandler:        c.ExitHandler,
		LoadHandler:        c.LoadHandler,
		StoreHandler:       c.StoreHandler,
		Budget:             c.Budget,
		Inject:             c.Inject,
		Vectorize:          c.Vectorize,
		Effort:             c.Effort,
	}
}
