package brewsvc

import (
	"errors"
	"time"
)

// Admission control (WithAdmission): per-priority queue-wait SLOs with
// deadline-aware shedding and an explicit overload decision per class,
// replacing the blanket degrade-on-full default.
//
// The mechanism is an estimate-then-enforce loop per shard:
//
//   - Each shard maintains an EWMA of its recent rewrite latency. At
//     admission, the estimated wait for an arriving request is the number
//     of queued flights at its priority or higher times that EWMA,
//     divided by the shard's worker count.
//   - A request whose class has an SLO and whose estimated wait exceeds
//     it is shed at admission: completed degraded with ReasonOverload and
//     ErrOverload, never enqueued. Shedding at the door beats queueing
//     work that is already doomed to miss its deadline.
//   - A full queue consults the class's OverloadDecision: ShedDegrade
//     sheds the arriving request; ShedEvictLower evicts the oldest queued
//     flight of a strictly lower priority class (completing it degraded
//     with ReasonOverload) and admits the arrival in its place. Promotion
//     flights are never evicted — they were promised to an awaiter.
//   - At dequeue, a flight that has already waited past its class SLO is
//     shed (ReasonDeadline) instead of tracing: the worker's time goes to
//     requests that can still meet their deadline.
//
// Classes without an SLO (zero duration) keep the legacy behavior
// exactly: admitted whenever the queue has room, rejected with
// ReasonQueueFull/ErrQueueFull when it does not, never deadline-shed.

// Service-level degradation reasons for admission control, extending the
// ReasonQueueFull/ReasonShutdown vocabulary.
const (
	// ReasonOverload: admission control shed the request (estimated or
	// actual queue wait over the class SLO, or an eviction victim).
	ReasonOverload = "overload"
	// ReasonDeadline: the request was admitted but waited past its class
	// SLO before a worker reached it, and was shed at dequeue.
	ReasonDeadline = "deadline"
)

// ErrOverload reports an admission-control shed: the request was degraded
// to the original function because its class SLO could not be met.
var ErrOverload = errors.New("brewsvc: admission control shed request")

// OverloadDecision selects what a priority class does when its request
// arrives at a full queue.
type OverloadDecision uint8

const (
	// ShedDegrade (the default) sheds the arriving request: it completes
	// degraded with ReasonOverload and ErrOverload.
	ShedDegrade OverloadDecision = iota
	// ShedEvictLower evicts the oldest queued flight of a strictly lower
	// priority class to make room (the victim completes degraded with
	// ReasonOverload); with no lower-priority victim available the
	// arriving request is shed as in ShedDegrade.
	ShedEvictLower
)

// Admission is the per-priority admission-control policy (WithAdmission).
type Admission struct {
	// SLO is the maximum tolerable queue wait per priority class, indexed
	// by Priority. Zero disables admission control for that class (legacy
	// queue-full behavior, no deadline shedding).
	SLO [3]time.Duration
	// OnOverload is each class's decision when its request arrives at a
	// full queue. Ignored for classes without an SLO.
	OnOverload [3]OverloadDecision
}

// rewriteEWMADivisor sets the exponential decay of the per-shard rewrite
// latency average: each observation contributes 1/8 of its value.
const rewriteEWMADivisor = 8

// observeRewriteNS folds one rewrite latency into the shard's EWMA.
func (sh *shard) observeRewriteNS(ns uint64) {
	for {
		old := sh.ewmaNS.Load()
		var next uint64
		if old == 0 {
			next = ns
		} else {
			next = old - old/rewriteEWMADivisor + ns/rewriteEWMADivisor
		}
		if sh.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimatedWaitLocked returns the expected queue wait for a request
// arriving at priority p: the flights it must wait behind, spread over
// the shard's workers, at the observed rewrite latency. Shard mu held.
func (sh *shard) estimatedWaitLocked(p Priority) time.Duration {
	ahead := sh.q.depthAtOrAbove(p)
	if ahead == 0 {
		return 0
	}
	return time.Duration(uint64(ahead) * sh.ewmaNS.Load() / uint64(sh.s.cfg.workers))
}
