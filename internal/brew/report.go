package brew

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
)

// Decision classification of one traced original instruction. Every traced
// instruction lands in exactly one class, so the four totals sum to
// TracedInstrs (the cmd/brew-trace accounting invariant).
type class uint8

const (
	classNone    class = iota // not decided by a tracing site: endStep infers it
	classKept                 // survived into the generated code
	classElided               // evaluated silently against the known world
	classFolded               // replaced by a cheaper form (immediate, strength reduction, folded address)
	classInlined              // call/return dissolved into the trace
	numClasses
)

// Decision aggregates what happened to one original instruction (by PC)
// across every time it was traced — a fully unrolled loop traces the same
// PC many times, possibly with different outcomes per iteration.
type Decision struct {
	PC      uint64 `json:"pc"`
	Op      string `json:"op"`
	Count   int    `json:"count"`
	Kept    int    `json:"kept,omitempty"`
	Elided  int    `json:"elided,omitempty"`
	Folded  int    `json:"folded,omitempty"`
	Inlined int    `json:"inlined,omitempty"`
	// Reason is the known-world justification recorded for the most recent
	// non-kept outcome at this PC.
	Reason string `json:"reason,omitempty"`
}

// BlockReport summarizes one captured basic block.
type BlockReport struct {
	ID         int    `json:"id"`
	Addr       uint64 `json:"addr,omitempty"` // 0 for compensation trampolines
	Trampoline bool   `json:"trampoline,omitempty"`
	Traced     int    `json:"traced"`
	Kept       int    `json:"kept,omitempty"`
	Elided     int    `json:"elided,omitempty"`
	Folded     int    `json:"folded,omitempty"`
	Inlined    int    `json:"inlined,omitempty"`
	Emitted    int    `json:"emitted"` // instructions in the final block body
}

// PassReport records one optimization pass's effect.
type PassReport struct {
	Name    string `json:"name"`
	Runs    int    `json:"runs"`
	Removed int    `json:"removed"` // instructions eliminated across all runs
}

// Overhead counts compensation instructions the rewriter added beyond the
// surviving originals.
type Overhead struct {
	Materializations int `json:"materializations,omitempty"` // MOVI/LEA/FMOVI reloads of known values
	HandlerInstrs    int `json:"handler_instrs,omitempty"`   // memory-handler brackets (Section III.D)
	HandlerCalls     int `json:"handler_calls,omitempty"`    // entry/exit handler calls
	TrampolineInstrs int `json:"trampoline_instrs,omitempty"`
}

// RewriteReport explains a rewrite: per traced instruction, per block and
// per optimization pass, what was kept, elided, folded or inlined and why.
// It is always produced (tracing is not the emulated hot path) and rides
// on Result.Report.
type RewriteReport struct {
	Fn           uint64 `json:"fn"`
	Addr         uint64 `json:"addr"`
	CodeSize     int    `json:"code_size"`
	TracedInstrs int    `json:"traced_instrs"`

	Kept    int `json:"kept"`
	Elided  int `json:"elided"`
	Folded  int `json:"folded"`
	Inlined int `json:"inlined"`

	// EmittedTrace counts instructions captured during tracing (before
	// optimization), overhead included; EmittedFinal counts block-body
	// instructions after the optimization passes (terminators excluded —
	// they are synthesized at layout time).
	EmittedTrace int `json:"emitted_trace"`
	EmittedFinal int `json:"emitted_final"`

	InlinedCalls      int `json:"inlined_calls"`
	UnrollTraceOvers  int `json:"unroll_trace_overs"` // back edges traced through (loop unrolling)
	VariantMigrations int `json:"variant_migrations"` // threshold-forced state migrations

	Overhead Overhead `json:"overhead"`

	// Effort is the tier the rewrite ran at ("full" or "quick").
	Effort string `json:"effort,omitempty"`
	// PassWork sums the pre-pass instruction counts over every
	// optimization pass run — the deterministic pass-stack cost the E6
	// tiering benchmark charges against tier-1. Zero at EffortQuick.
	PassWork int `json:"pass_work,omitempty"`
	// OptSweeps records, per fixpoint sweep of the core pass loop, how
	// many instructions the sweep removed; the loop stops after the first
	// sweep that removes nothing, so the last entry is always 0 unless
	// the sweep bound was hit.
	OptSweeps []int `json:"opt_sweeps,omitempty"`

	Blocks    []BlockReport `json:"blocks"`
	Passes    []PassReport  `json:"passes"`
	Decisions []Decision    `json:"decisions"`
}

// ClassTotal returns Kept+Elided+Folded+Inlined; by construction it equals
// TracedInstrs.
func (r *RewriteReport) ClassTotal() int { return r.Kept + r.Elided + r.Folded + r.Inlined }

// JSON renders the report as indented JSON (deterministic: every slice is
// emitted in sorted order).
func (r *RewriteReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Text renders the report as a human-readable summary.
func (r *RewriteReport) Text() string {
	var b strings.Builder
	pct := func(n int) float64 {
		if r.TracedInstrs == 0 {
			return 0
		}
		return 100 * float64(n) / float64(r.TracedInstrs)
	}
	fmt.Fprintf(&b, "rewrite of 0x%x -> 0x%x (%d bytes)", r.Fn, r.Addr, r.CodeSize)
	if r.Effort != "" {
		fmt.Fprintf(&b, "  effort=%s", r.Effort)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "traced %d original instructions:\n", r.TracedInstrs)
	fmt.Fprintf(&b, "  kept    %6d  (%5.1f%%)\n", r.Kept, pct(r.Kept))
	fmt.Fprintf(&b, "  elided  %6d  (%5.1f%%)\n", r.Elided, pct(r.Elided))
	fmt.Fprintf(&b, "  folded  %6d  (%5.1f%%)\n", r.Folded, pct(r.Folded))
	fmt.Fprintf(&b, "  inlined %6d  (%5.1f%%)\n", r.Inlined, pct(r.Inlined))
	fmt.Fprintf(&b, "emitted: %d during trace, %d after passes\n", r.EmittedTrace, r.EmittedFinal)
	fmt.Fprintf(&b, "inlined calls: %d   unroll trace-overs: %d   variant migrations: %d\n",
		r.InlinedCalls, r.UnrollTraceOvers, r.VariantMigrations)
	fmt.Fprintf(&b, "overhead: %d materializations, %d handler instrs, %d handler calls, %d trampoline instrs\n",
		r.Overhead.Materializations, r.Overhead.HandlerInstrs, r.Overhead.HandlerCalls, r.Overhead.TrampolineInstrs)
	fmt.Fprintf(&b, "\nblocks (%d):\n", len(r.Blocks))
	for _, bl := range r.Blocks {
		if bl.Trampoline {
			fmt.Fprintf(&b, "  B%-3d <compensation trampoline>  emitted=%d\n", bl.ID, bl.Emitted)
			continue
		}
		fmt.Fprintf(&b, "  B%-3d @0x%-8x traced=%-6d kept=%-5d elided=%-6d folded=%-4d inlined=%-4d emitted=%d\n",
			bl.ID, bl.Addr, bl.Traced, bl.Kept, bl.Elided, bl.Folded, bl.Inlined, bl.Emitted)
	}
	fmt.Fprintf(&b, "\noptimization passes:\n")
	for _, p := range r.Passes {
		fmt.Fprintf(&b, "  %-20s runs=%-2d removed=%d\n", p.Name, p.Runs, p.Removed)
	}
	if len(r.OptSweeps) > 0 {
		fmt.Fprintf(&b, "  fixpoint sweeps: %d (removed per sweep %v), pass work %d instr-scans\n",
			len(r.OptSweeps), r.OptSweeps, r.PassWork)
	}
	fmt.Fprintf(&b, "\nper-instruction decisions (%d PCs):\n", len(r.Decisions))
	for _, d := range r.Decisions {
		var parts []string
		if d.Kept > 0 {
			parts = append(parts, fmt.Sprintf("kept=%d", d.Kept))
		}
		if d.Elided > 0 {
			parts = append(parts, fmt.Sprintf("elided=%d", d.Elided))
		}
		if d.Folded > 0 {
			parts = append(parts, fmt.Sprintf("folded=%d", d.Folded))
		}
		if d.Inlined > 0 {
			parts = append(parts, fmt.Sprintf("inlined=%d", d.Inlined))
		}
		fmt.Fprintf(&b, "  0x%-8x %-7s x%-6d %-28s", d.PC, d.Op, d.Count, strings.Join(parts, " "))
		if d.Reason != "" {
			fmt.Fprintf(&b, "  ; %s", d.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// reportBuilder accumulates decision data while the tracer runs. State is
// per-PC and per-block (both bounded by the original code and block count),
// never per trace event, so full unrolls stay cheap: class totals in an
// array, per-block class counts on the blocks themselves, and decisions in
// one slice that a PC map indexes.
type reportBuilder struct {
	emitN int // instructions captured so far (emit + trampoline appends)

	// Per-step scratch, reset by beginStep.
	stepClass  class
	stepReason string

	totals    [numClasses]int
	decisions []Decision
	pcIndex   map[uint64]int32 // PC -> index into decisions
	last      int32            // index of the previous step's decision

	inlinedCalls int
	traceOvers   int
	migrations   int
	overhead     Overhead

	passes   []PassReport
	passWork int
	sweeps   []int
}

func newReportBuilder() *reportBuilder {
	return &reportBuilder{pcIndex: make(map[uint64]int32, 256), last: -1}
}

// beginStep snapshots the emission counter before one traced instruction.
func (rb *reportBuilder) beginStep() int {
	rb.stepClass = classNone
	rb.stepReason = ""
	return rb.emitN
}

// classify pins the current traced instruction's class explicitly;
// endStep's emitted-delta heuristic only applies when no site did.
func (rb *reportBuilder) classify(c class, reason string) {
	rb.stepClass = c
	rb.stepReason = reason
}

// note records a justification without forcing a class.
func (rb *reportBuilder) note(reason string) {
	if rb.stepReason == "" {
		rb.stepReason = reason
	}
}

// endStep classifies one successfully traced instruction.
func (rb *reportBuilder) endStep(b *eblock, ins *isa.Instr, emitBase int) {
	c := rb.stepClass
	if c == classNone {
		if rb.emitN > emitBase {
			c = classKept
		} else {
			c = classElided
			if rb.stepReason == "" {
				rb.stepReason = "known world: evaluated silently"
			}
		}
	}
	rb.totals[c]++
	b.classes[c]++

	// Code mostly runs in the order it was first seen (the next iteration
	// of an unrolled loop, the same callee inlined again), so the decision
	// after the previous one is tried before the map.
	di := rb.last + 1
	if int(di) >= len(rb.decisions) || rb.decisions[di].PC != ins.Addr {
		var ok bool
		if di, ok = rb.pcIndex[ins.Addr]; !ok {
			di = int32(len(rb.decisions))
			rb.pcIndex[ins.Addr] = di
			rb.decisions = append(rb.decisions, Decision{PC: ins.Addr, Op: ins.Op.String()})
		}
	}
	rb.last = di
	d := &rb.decisions[di]
	d.Count++
	switch c {
	case classKept:
		d.Kept++
	case classElided:
		d.Elided++
	case classFolded:
		d.Folded++
	case classInlined:
		d.Inlined++
	}
	if c != classKept && rb.stepReason != "" {
		d.Reason = rb.stepReason
	}
}

func (rb *reportBuilder) pass(name string, scanned, removed int) {
	i := 0
	for i < len(rb.passes) && rb.passes[i].Name != name {
		i++
	}
	if i == len(rb.passes) {
		rb.passes = append(rb.passes, PassReport{Name: name})
	}
	rb.passes[i].Runs++
	rb.passes[i].Removed += removed
	rb.passWork += scanned
}

// sweep records one fixpoint sweep of the core pass loop and its net
// instruction removal.
func (rb *reportBuilder) sweep(removed int) {
	rb.sweeps = append(rb.sweeps, removed)
}

// build assembles the final report from the builder and the optimized
// blocks. Blocks come in id order; decisions are sorted by PC for
// byte-stable rendering. The builder's slices become the report's.
func (rb *reportBuilder) build(fn uint64, res *Result, blocks []*eblock) *RewriteReport {
	r := &RewriteReport{
		Fn:                fn,
		Addr:              res.Addr,
		CodeSize:          res.CodeSize,
		TracedInstrs:      res.TracedInstrs,
		Kept:              rb.totals[classKept],
		Elided:            rb.totals[classElided],
		Folded:            rb.totals[classFolded],
		Inlined:           rb.totals[classInlined],
		EmittedTrace:      rb.emitN,
		InlinedCalls:      rb.inlinedCalls,
		UnrollTraceOvers:  rb.traceOvers,
		VariantMigrations: rb.migrations,
		Overhead:          rb.overhead,
		PassWork:          rb.passWork,
		OptSweeps:         rb.sweeps,
		Passes:            rb.passes,
		Decisions:         rb.decisions,
	}
	r.Blocks = make([]BlockReport, len(blocks))
	for id, b := range blocks {
		c := &b.classes
		r.Blocks[id] = BlockReport{
			ID: id, Addr: b.addr, Emitted: len(b.ins),
			Kept: int(c[classKept]), Elided: int(c[classElided]),
			Folded: int(c[classFolded]), Inlined: int(c[classInlined]),
			Traced: int(c[classKept] + c[classElided] + c[classFolded] + c[classInlined]),
			// A block nothing was traced into is a compensation trampoline.
			Trampoline: b.world == nil,
		}
		r.EmittedFinal += len(b.ins)
	}
	slices.SortFunc(r.Decisions, func(a, b Decision) int { return cmp.Compare(a.PC, b.PC) })
	return r
}
