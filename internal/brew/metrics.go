package brew

import "repro/internal/telemetry"

// Rewriter metrics, published once per completed rewrite from the finished
// RewriteReport. Handles are resolved at init; updates are no-ops while
// telemetry is disabled.
var (
	mRewrites     = telemetry.Default.Counter("brew.rewrites")
	mBlocksTraced = telemetry.Default.Counter("brew.blocks_traced")
	mInstrsTraced = telemetry.Default.Counter("brew.instrs_traced")
	mInstrsKept   = telemetry.Default.Counter("brew.instrs_kept")
	mInstrsElided = telemetry.Default.Counter("brew.instrs_elided")
	mInstrsFolded = telemetry.Default.Counter("brew.instrs_folded")
	mInstrsInline = telemetry.Default.Counter("brew.instrs_inlined")
	mEmittedFinal = telemetry.Default.Counter("brew.instrs_emitted")
	mCallsInlined = telemetry.Default.Counter("brew.calls_inlined")
	mTraceOvers   = telemetry.Default.Counter("brew.unroll_trace_overs")
	mMigrations   = telemetry.Default.Counter("brew.variant_migrations")
	mGuardHits    = telemetry.Default.Counter("brew.guard_hits")
	mGuardMisses  = telemetry.Default.Counter("brew.guard_misses")

	mTracedHist = telemetry.Default.Histogram("brew.traced_instrs",
		[]uint64{100, 1_000, 10_000, 100_000, 1_000_000})

	// Degradations (Do under ModeDegrade), total and by reason.
	mDegrades  = telemetry.Default.Counter("brew.degrades")
	mDegradeBy = map[string]*telemetry.Counter{
		ReasonTraceBudget:  telemetry.Default.Counter("brew.degrade.trace_budget"),
		ReasonDeadline:     telemetry.Default.Counter("brew.degrade.deadline"),
		ReasonCodeBuffer:   telemetry.Default.Counter("brew.degrade.code_buffer"),
		ReasonBlocks:       telemetry.Default.Counter("brew.degrade.blocks"),
		ReasonInlineDepth:  telemetry.Default.Counter("brew.degrade.inline_depth"),
		ReasonIndirectJump: telemetry.Default.Counter("brew.degrade.indirect_jump"),
		ReasonUnsupported:  telemetry.Default.Counter("brew.degrade.unsupported"),
		ReasonBadCode:      telemetry.Default.Counter("brew.degrade.bad_code"),
		ReasonBadConfig:    telemetry.Default.Counter("brew.degrade.bad_config"),
		ReasonPanic:        telemetry.Default.Counter("brew.degrade.panic"),
		ReasonOther:        telemetry.Default.Counter("brew.degrade.other"),
	}
)

func publishDegradeTelemetry(reason string) {
	if !telemetry.Enabled() {
		return
	}
	mDegrades.Inc()
	mDegradeBy[reason].Inc()
}

func publishRewriteTelemetry(r *RewriteReport) {
	if !telemetry.Enabled() {
		return
	}
	mRewrites.Inc()
	mBlocksTraced.Add(uint64(len(r.Blocks)))
	mInstrsTraced.Add(uint64(r.TracedInstrs))
	mInstrsKept.Add(uint64(r.Kept))
	mInstrsElided.Add(uint64(r.Elided))
	mInstrsFolded.Add(uint64(r.Folded))
	mInstrsInline.Add(uint64(r.Inlined))
	mEmittedFinal.Add(uint64(r.EmittedFinal))
	mCallsInlined.Add(uint64(r.InlinedCalls))
	mTraceOvers.Add(uint64(r.UnrollTraceOvers))
	mMigrations.Add(uint64(r.VariantMigrations))
	mTracedHist.Observe(uint64(r.TracedInstrs))
}
