package specmgr

import (
	"repro/internal/brew"
	"repro/internal/obs"
)

// Flight-recorder wiring: every variant lifecycle transition the manager
// performs (install, evict, demote, entry deopt, watchpoint hit, guard
// storm, degrade) emits one structured obs.Event, so a chaos-test
// post-mortem or brew-top can replay exactly what happened and why. The
// emit helpers cost one atomic load while obs is disabled and are safe
// under mgr.mu (the recorder is lock-free).

func obsTier(eff brew.Effort) obs.Tier {
	if eff == brew.EffortQuick {
		return obs.TierQuick
	}
	return obs.TierFull
}

// emitVariant records a lifecycle event about one variant (v may be nil
// for entry-level events).
func emitVariant(kind obs.Kind, e *Entry, v *Variant, reason string) {
	if !obs.Enabled() {
		return
	}
	ev := obs.Event{Kind: kind, Fn: e.fn, Reason: reason, Tier: obs.TierNone}
	if v != nil {
		ev.Tier = obsTier(v.tier)
		if v.res != nil {
			ev.Addr = v.res.Addr
		}
	}
	obs.Emit(ev)
}

// emitDegrade records a degradation with its reason.
func emitDegrade(e *Entry, reason string) {
	if !obs.Enabled() {
		return
	}
	obs.Emit(obs.Event{Kind: obs.KindDegrade, Fn: e.fn, Reason: reason, Tier: obs.TierNone})
}
