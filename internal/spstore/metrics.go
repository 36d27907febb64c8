package spstore

import (
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Store telemetry: registered once, zero-cost while telemetry is
// disabled. The spstore.* names are the satellite contract surfaced by
// Service.Inspect() and /metrics.
var (
	mPuts        = telemetry.Default.Counter("spstore.puts")
	mLocalHits   = telemetry.Default.Counter("spstore.local_hits")
	mLocalMisses = telemetry.Default.Counter("spstore.local_misses")
	mWarmHits    = telemetry.Default.Counter("spstore.warm_hits")
	mRelocated   = telemetry.Default.Counter("spstore.relocated")
	mRevalFails  = telemetry.Default.Counter("spstore.warm_revalidation_failures")
	mQuarantined = telemetry.Default.Counter("spstore.quarantined")
)

// emitPersist records a KindPersist flight-recorder event when the
// tracer is enabled (the Kind is pre-set by callers; Reason carries the
// specific lifecycle step).
func emitPersist(e obs.Event) {
	if !obs.Enabled() {
		return
	}
	e.Tier = obs.TierNone
	obs.Emit(e)
}
