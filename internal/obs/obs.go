// Package obs is the request-lifecycle observability layer for the
// specialization service: a span-based tracer, a lock-free ring-buffer
// flight recorder, and a Prometheus-style exposition of both.
//
// It is the one process-wide observation plane; the counters each
// instance keeps for itself (brewsvc.Stats, vm.Stats, spstore.Stats, ...)
// are always on and need no gate. Every entry point here is zero-cost
// when observation is disabled: the hot path pays one atomic load (plus
// building a stack-resident argument struct) and never allocates. When
// enabled:
//
//   - brewsvc.Submit allocates a TraceID per request and records spans
//     covering the cache lookup, the queue wait, the coalesce join, the
//     rewrite itself, the install, and — asynchronously linked through
//     the Link field — the background tier promotion;
//   - span durations aggregate into exact-quantile (p50/p99/p999)
//     statistics per stage and per tier (trace.go);
//   - structured lifecycle events (variant install/evict/demote, entry
//     deopt, watchpoint hit, guard-miss storm, promotion success and
//     failure, degradation with reason, injected faults) land in the
//     flight recorder (ring.go), whose Dump the chaos tests snapshot on
//     failure for post-mortem.
//
// The package-level Default observer is what the built-in
// instrumentation (brewsvc, specmgr, faultinject) writes to;
// Service.Inspect and cmd/brew-top read it back.
package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// enabled gates every span and event, package-level so the hot-path
// check is a single atomic load with no pointer chase.
var enabled atomic.Bool

// Enable turns on lifecycle observation process-wide.
func Enable() { enabled.Store(true) }

// Disable turns off lifecycle observation. Already-recorded spans and
// events remain readable; new updates are dropped.
func Disable() { enabled.Store(false) }

// Enabled reports whether observation is on.
func Enabled() bool { return enabled.Load() }

// epoch anchors Now: span timestamps are monotonic nanoseconds since
// process start, so they subtract safely (time.Since uses the monotonic
// clock).
var epoch = time.Now()

// Now returns the current monotonic timestamp in nanoseconds, or 0 when
// observation is disabled — span start sites call it unconditionally and
// the zero gates the matching EndSpan into a no-op.
func Now() int64 {
	if !enabled.Load() {
		return 0
	}
	return int64(time.Since(epoch))
}

// TraceID identifies one request lifecycle. 0 means "not traced" and
// turns every span/event call carrying it into a no-op.
type TraceID uint64

// Stage identifies one lifecycle span within a trace.
type Stage uint8

// Span stages, in lifecycle order.
const (
	// StageSubmit covers one caller's Submit call end to end (admission:
	// cache lookup, coalesce decision, enqueue).
	StageSubmit Stage = iota
	// StageCacheLookup covers the specialized-code cache probe.
	StageCacheLookup
	// StageQueue covers a flight's wait in the bounded priority queue,
	// from push to worker pop.
	StageQueue
	// StageCoalesce covers a coalesced caller's wait on another caller's
	// in-flight trace, from its Submit to the shared completion; its Link
	// is the flight's trace.
	StageCoalesce
	// StageRewrite covers the rewrite itself (brew.Do) on a worker.
	StageRewrite
	// StageInstall covers variant installation and cache publication.
	StageInstall
	// StagePromotion covers a background tier promotion end to end (queue
	// wait + re-rewrite + hot swap); its Link is the trace of the request
	// that installed the tier-0 variant.
	StagePromotion

	numStages
)

var stageNames = [numStages]string{
	"submit", "cache_lookup", "queue", "coalesce", "rewrite", "install", "promotion",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Tier labels which rewrite effort a span belongs to.
type Tier uint8

// Span tiers. Stages that are not tier-specific (cache lookup, submit)
// record under TierNone.
const (
	TierQuick Tier = iota // brew.EffortQuick (tier-0)
	TierFull              // brew.EffortFull (tier-1)
	TierNone

	numTiers
)

// String returns "quick", "full" or "-".
func (t Tier) String() string {
	switch t {
	case TierQuick:
		return "quick"
	case TierFull:
		return "full"
	default:
		return "-"
	}
}

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds.
const (
	// KindSpan is a completed tracer span (EndSpan records one per span,
	// so a trace can be reconstructed from the recorder alone).
	KindSpan Kind = iota
	// KindVariantInstall: a specialized body joined an entry's table.
	KindVariantInstall
	// KindVariantEvict: a variant was removed by its owner (LRU within
	// the table, or a service cache eviction).
	KindVariantEvict
	// KindVariantDemote: a variant was taken out of service (assumption
	// violation or guard-miss storm; Reason says which).
	KindVariantDemote
	// KindEntryDeopt: an entry's last live variant died and the whole
	// entry deoptimized to the original function.
	KindEntryDeopt
	// KindWatchHit: a store landed in a frozen region watched for a
	// variant's assumptions.
	KindWatchHit
	// KindGuardStorm: a variant crossed the consecutive-guard-miss limit.
	KindGuardStorm
	// KindPromoteOK: a tier promotion hot-swapped an optimized body.
	KindPromoteOK
	// KindPromoteFail: a tier promotion was refused or its rewrite
	// degraded; the variant keeps its tier-0 body.
	KindPromoteFail
	// KindDegrade: a rewrite failed and the request degraded to the
	// original function (Reason carries the brew.Reason* label).
	KindDegrade
	// KindFault: an injected fault fired (Reason is the injection point).
	KindFault
	// KindPersist: a persistent-store lifecycle event — warm adoption,
	// revalidation failure or quarantine (Reason says which; see
	// internal/spstore).
	KindPersist

	numKinds
)

var kindNames = [numKinds]string{
	"span", "variant_install", "variant_evict", "variant_demote",
	"entry_deopt", "watch_hit", "guard_storm",
	"promote_ok", "promote_fail", "degrade", "fault", "persist",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured lifecycle record. Events are immutable once
// recorded (the ring stores pointers; Dump readers share them with
// writers), so fields must not be mutated after Emit/EndSpan.
type Event struct {
	// Seq is the recorder-assigned global sequence number; Dump returns
	// events sorted by it.
	Seq uint64 `json:"seq"`
	// Start is the event timestamp (monotonic ns since process start);
	// for spans, the span start.
	Start int64 `json:"start_ns"`
	// Dur is the span duration in nanoseconds (0 for non-span events).
	Dur  int64 `json:"dur_ns,omitempty"`
	Kind Kind  `json:"kind"`
	// Stage and Tier are meaningful for KindSpan.
	Stage Stage `json:"stage,omitempty"`
	Tier  Tier  `json:"tier,omitempty"`
	// Trace is the lifecycle this event belongs to (0 = unattributed,
	// e.g. a specmgr event outside any service request).
	Trace TraceID `json:"trace,omitempty"`
	// Link attributes the event to a second trace: a coalesce span links
	// to the flight it joined, a promotion span to the request that
	// installed the tier-0 variant.
	Link TraceID `json:"link,omitempty"`
	// Fn is the original function address the event concerns.
	Fn uint64 `json:"fn,omitempty"`
	// Addr is the specialized body (or other code) address involved.
	Addr uint64 `json:"addr,omitempty"`
	// Reason carries the deopt/degrade reason or fault point label.
	Reason string `json:"reason,omitempty"`
	// Shard attributes the event to one service shard. Stored 1-based so
	// the zero value means "unattributed" (shard N is stored as N+1); read
	// it through ShardID.
	Shard int32 `json:"shard,omitempty"`
}

// ShardID returns the service shard this event is attributed to and
// whether it carries an attribution at all.
func (e Event) ShardID() (int, bool) {
	if e.Shard == 0 {
		return 0, false
	}
	return int(e.Shard) - 1, true
}

// Format renders the event as one human-readable line.
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-6d %12.3fms %-15s", e.Seq, float64(e.Start)/1e6, e.Kind.String())
	if e.Kind == KindSpan {
		fmt.Fprintf(&b, " %-12s tier=%-5s dur=%.3fms", e.Stage.String(), e.Tier.String(), float64(e.Dur)/1e6)
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%d", e.Trace)
	}
	if e.Link != 0 {
		fmt.Fprintf(&b, " link=%d", e.Link)
	}
	if e.Fn != 0 {
		fmt.Fprintf(&b, " fn=0x%x", e.Fn)
	}
	if e.Addr != 0 {
		fmt.Fprintf(&b, " addr=0x%x", e.Addr)
	}
	if e.Reason != "" {
		fmt.Fprintf(&b, " reason=%s", e.Reason)
	}
	if id, ok := e.ShardID(); ok {
		fmt.Fprintf(&b, " shard=%d", id)
	}
	return b.String()
}

// FormatEvents renders events one per line (chaos-test post-mortems).
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// DefaultRingCapacity sizes the Default observer's flight recorder.
const DefaultRingCapacity = 4096

// Observer bundles one tracer and one flight recorder.
type Observer struct {
	Tracer   *Tracer
	Recorder *Recorder
}

// NewObserver returns an observer with a fresh tracer and a recorder of
// the given capacity.
func NewObserver(ringCapacity int) *Observer {
	return &Observer{Tracer: NewTracer(), Recorder: NewRecorder(ringCapacity)}
}

// Default is the process-wide observer the built-in instrumentation
// (brewsvc, specmgr, faultinject) writes to.
var Default = NewObserver(DefaultRingCapacity)

// StartTrace allocates a trace ID from the Default observer (0 when
// disabled).
func StartTrace() TraceID { return Default.Tracer.StartTrace() }

// EndSpan completes one span on the Default observer: no-op when tid is
// 0 (untraced request or observation disabled at span start). The span
// duration is aggregated into the per-stage/per-tier statistics and the
// span itself is recorded as a flight-recorder event.
func EndSpan(tid TraceID, stage Stage, tier Tier, startNS int64, fn uint64, link TraceID) {
	if tid == 0 || !enabled.Load() {
		return
	}
	Default.endSpan(tid, stage, tier, startNS, fn, link, 0)
}

// EndSpanOn is EndSpan with a service-shard attribution: the recorded
// event carries the shard that performed the work, so a flight-recorder
// tail shows which shard a queue wait or rewrite ran on.
func EndSpanOn(shard int, tid TraceID, stage Stage, tier Tier, startNS int64, fn uint64, link TraceID) {
	if tid == 0 || !enabled.Load() {
		return
	}
	Default.endSpan(tid, stage, tier, startNS, fn, link, int32(shard)+1)
}

func (o *Observer) endSpan(tid TraceID, stage Stage, tier Tier, startNS int64, fn uint64, link TraceID, shard int32) {
	dur := int64(time.Since(epoch)) - startNS
	if dur < 0 {
		dur = 0
	}
	o.Tracer.observe(stage, tier, dur)
	o.Recorder.Record(&Event{
		Kind: KindSpan, Stage: stage, Tier: tier,
		Trace: tid, Link: link, Fn: fn, Start: startNS, Dur: dur, Shard: shard,
	})
}

// Emit records one lifecycle event on the Default observer (no-op when
// disabled). The Start timestamp is stamped here; the caller fills the
// classification fields.
func Emit(e Event) {
	if !enabled.Load() {
		return
	}
	e.Start = int64(time.Since(epoch))
	ev := e // escape once, after the enabled gate
	Default.Recorder.Record(&ev)
}

// Events returns the Default recorder's contents, oldest first.
func Events() []Event { return Default.Recorder.Dump() }

// TailEvents returns the newest n events from the Default recorder.
func TailEvents(n int) []Event { return Default.Recorder.Tail(n) }

// TraceEvents returns every Default-recorder event belonging to trace
// tid — directly (Trace == tid) or by link (Link == tid) — oldest first.
// This is the lifecycle-reconstruction primitive: one coalesced burst's
// flight trace yields the shared rewrite/install spans, every coalesced
// caller's submit span, and the asynchronously linked promotion span.
func TraceEvents(tid TraceID) []Event {
	all := Default.Recorder.Dump()
	out := make([]Event, 0, 8)
	for _, e := range all {
		if e.Trace == tid || e.Link == tid {
			out = append(out, e)
		}
	}
	return out
}

// StageSnapshot returns the Default tracer's per-stage/per-tier quantile
// statistics.
func StageSnapshot() []StageQuantiles { return Default.Tracer.Snapshot() }

// Reset clears the Default observer's spans, stage statistics and
// recorded events (tests and benchmarks).
func Reset() {
	Default.Tracer.Reset()
	Default.Recorder.Reset()
}
