package brewsvc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/brew"
	"repro/internal/obs"
	"repro/internal/specmgr"
	"repro/internal/spstore"
)

// VariantInspect is one table variant's state in an inspection snapshot.
type VariantInspect struct {
	// Guards is the variant's guard key (empty = unconditional variant).
	Guards []brew.ParamGuard `json:"guards,omitempty"`
	// Tier is the rewrite effort the served body was built at.
	Tier string `json:"tier"`
	// Live reports whether the variant is still dispatched to.
	Live bool `json:"live"`
	// Addr and CodeSize describe the specialized body.
	Addr     uint64 `json:"addr"`
	CodeSize int    `json:"code_size"`
	// HotCalls and HotSamples are the promotion-hotness counters.
	HotCalls   uint64 `json:"hot_calls"`
	HotSamples uint64 `json:"hot_samples"`
	// GuardHits/GuardMisses/MissStreak are the guard accounting feeding
	// the storm policy (zero for the unconditional variant).
	GuardHits   uint64 `json:"guard_hits,omitempty"`
	GuardMisses uint64 `json:"guard_misses,omitempty"`
	MissStreak  uint64 `json:"miss_streak,omitempty"`
}

// EntryInspect is one managed entry's state in an inspection snapshot.
type EntryInspect struct {
	// Fn is the original function; Addr what callers are routed to now.
	Fn   uint64 `json:"fn"`
	Addr uint64 `json:"addr"`
	// Tier is the effort tier of the code actually served (brew.Effort
	// string; "-" when the entry serves the generic original).
	Tier     string `json:"tier"`
	Pending  bool   `json:"pending,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Deopted  bool   `json:"deopted,omitempty"`
	// Reason is the degrade/deopt reason, when any.
	Reason string `json:"reason,omitempty"`
	// HotCalls and HotSamples are the entry-level (stub-side) hotness.
	HotCalls   uint64 `json:"hot_calls"`
	HotSamples uint64 `json:"hot_samples"`
	// Refs counts the service references (flights + cache slots) keeping
	// the entry alive.
	Refs int `json:"refs"`
	// Shard is the service shard that owns the entry.
	Shard int `json:"shard"`
	// Variants is the live variant table.
	Variants []VariantInspect `json:"variants,omitempty"`
}

// ShardInspect is one service shard's state in an inspection snapshot.
type ShardInspect struct {
	// QueueDepths is the shard's queued-flight count per priority (low,
	// normal, high); QueueLen their sum, QueueCap the shard's admission
	// bound.
	QueueDepths [3]int `json:"queue_depths"`
	QueueLen    int    `json:"queue_len"`
	QueueCap    int    `json:"queue_cap"`
	// TrackedPromotions counts tier-0 variants this shard tracks.
	TrackedPromotions int `json:"tracked_promotions"`
	// EwmaRewriteNS is the shard's observed rewrite latency average,
	// feeding its admission-control wait estimate.
	EwmaRewriteNS uint64 `json:"ewma_rewrite_ns"`
	// Stats is the shard's own counter snapshot.
	Stats Stats `json:"stats"`
}

// Inspection is a structured point-in-time snapshot of the service: the
// live-introspection surface behind brew-top and the /inspect endpoint.
// The top-level queue and worker fields aggregate across shards; Shards
// carries the per-shard breakdown.
type Inspection struct {
	// QueueDepths is the queued-flight count per priority (low, normal,
	// high) summed across shards; QueueLen their sum, QueueCap the total
	// admission bound (per-shard cap times shard count).
	QueueDepths [3]int `json:"queue_depths"`
	QueueLen    int    `json:"queue_len"`
	QueueCap    int    `json:"queue_cap"`
	// Workers is the total rewriter goroutine count (all shards).
	Workers int  `json:"workers"`
	Closed  bool `json:"closed,omitempty"`
	// Stats is the unconditional service counter snapshot (all shards).
	Stats Stats `json:"stats"`
	// Shards is the per-shard breakdown, indexed by shard ID.
	Shards []ShardInspect `json:"shards"`
	// CacheLen is the total cached slots; CacheShards the per-shard
	// occupancy (skew here is a hash-quality signal).
	CacheLen    int   `json:"cache_len"`
	CacheShards []int `json:"cache_shards"`
	// TrackedPromotions counts tier-0 variants tracked for promotion
	// across all shards.
	TrackedPromotions int `json:"tracked_promotions"`
	// Entries are the shared variant-table entries, sorted by Fn.
	Entries []EntryInspect `json:"entries"`
	// Persist is the persistent rewrite store's counter snapshot (nil
	// when the service runs without a store).
	Persist *spstore.Stats `json:"persist,omitempty"`
	// Stages is the tracer's per-stage/per-tier quantile snapshot (empty
	// while observation is disabled).
	Stages []obs.StageQuantiles `json:"stages,omitempty"`
	// Events is the flight recorder's newest tail (empty while
	// observation is disabled).
	Events []obs.Event `json:"events,omitempty"`
}

// inspectEventTail bounds the flight-recorder tail an Inspection carries.
const inspectEventTail = 32

// Inspect assembles a structured snapshot of the service's live state:
// per-shard queue depths and counters, per-entry variant tables with
// tiers, hotness and guard hit/miss accounting, cache shard occupancy,
// stage quantiles and the flight-recorder tail. Safe for concurrent use;
// the snapshot is internally consistent per subsystem but not a global
// atomic cut (shards, queue and cache are sampled in sequence).
func (s *Service) Inspect() Inspection {
	ins := Inspection{
		Workers: len(s.shards) * s.cfg.workers,
		Closed:  s.closed.Load(),
		Shards:  make([]ShardInspect, len(s.shards)),
	}
	type entRef struct {
		e     *specmgr.Entry
		refs  int
		shard int
	}
	var ents []entRef
	for i, sh := range s.shards {
		sh.mu.Lock()
		si := ShardInspect{
			QueueDepths:       sh.q.depths(),
			QueueLen:          sh.q.len(),
			QueueCap:          s.cfg.queueCap,
			TrackedPromotions: len(sh.tracked),
		}
		for _, se := range sh.byFn {
			ents = append(ents, entRef{e: se.e, refs: se.refs, shard: i})
		}
		sh.mu.Unlock()
		si.EwmaRewriteNS = sh.ewmaNS.Load()
		si.Stats = sh.st.snapshot()
		ins.Shards[i] = si

		for p, d := range si.QueueDepths {
			ins.QueueDepths[p] += d
		}
		ins.QueueLen += si.QueueLen
		ins.QueueCap += si.QueueCap
		ins.TrackedPromotions += si.TrackedPromotions
		ins.Stats.add(si.Stats)
	}

	if s.cfg.store != nil {
		st := s.cfg.store.Stats()
		ins.Persist = &st
	}
	ins.CacheShards = s.cache.shardLens()
	for _, n := range ins.CacheShards {
		ins.CacheLen += n
	}
	for _, er := range ents {
		ei := inspectEntry(er.e, er.refs)
		ei.Shard = er.shard
		ins.Entries = append(ins.Entries, ei)
	}
	sort.Slice(ins.Entries, func(i, j int) bool { return ins.Entries[i].Fn < ins.Entries[j].Fn })
	if obs.Enabled() {
		ins.Stages = obs.StageSnapshot()
		ins.Events = obs.TailEvents(inspectEventTail)
	}
	return ins
}

func inspectEntry(e *specmgr.Entry, refs int) EntryInspect {
	calls, samples := e.Hotness()
	ei := EntryInspect{
		Fn: e.Fn(), Addr: e.Addr(),
		Pending: e.Pending(), Degraded: e.Degraded(),
		HotCalls: calls, HotSamples: samples,
		Refs: refs,
	}
	if deopted, reason := e.Deopted(); deopted {
		ei.Deopted, ei.Reason = true, reason
	}
	// The served tier is only meaningful when specialized code is live.
	if vs := e.Variants(); len(vs) > 0 {
		ei.Tier = e.Tier().String()
		for _, v := range vs {
			vi := VariantInspect{
				Guards: v.Key(),
				Tier:   v.Tier().String(),
				Live:   v.Live(),
			}
			vi.HotCalls, vi.HotSamples = v.Hotness()
			if res := v.Result(); res != nil {
				vi.Addr, vi.CodeSize = res.Addr, res.CodeSize
			}
			if gr := v.Guarded(); gr != nil {
				vi.GuardHits, vi.GuardMisses, vi.MissStreak = gr.Hits(), gr.Misses(), gr.MissStreak()
			}
			ei.Variants = append(ei.Variants, vi)
		}
		sort.Slice(ei.Variants, func(i, j int) bool {
			return fmt.Sprint(ei.Variants[i].Guards) < fmt.Sprint(ei.Variants[j].Guards)
		})
	} else {
		ei.Tier = "-"
	}
	return ei
}

// Render formats the inspection as the human-readable dashboard brew-top
// prints: service counters, queue/cache occupancy, per-shard lines, stage
// quantiles, the entry/variant tables and the flight-recorder tail.
func (i Inspection) Render() string {
	var b strings.Builder
	state := "running"
	if i.Closed {
		state = "closed"
	}
	fmt.Fprintf(&b, "service   %s, %d workers", state, i.Workers)
	if len(i.Shards) > 1 {
		fmt.Fprintf(&b, " across %d shards", len(i.Shards))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "queue     %d/%d (high=%d normal=%d low=%d)\n",
		i.QueueLen, i.QueueCap, i.QueueDepths[PriorityHigh], i.QueueDepths[PriorityNormal], i.QueueDepths[PriorityLow])
	fmt.Fprintf(&b, "cache     %d slots, shards %v\n", i.CacheLen, i.CacheShards)
	st := i.Stats
	fmt.Fprintf(&b, "requests  submitted=%d coalesced=%d cache_hit=%d cache_miss=%d rejected=%d\n",
		st.Submitted, st.CoalesceHits, st.CacheHits, st.CacheMisses, st.Rejected)
	fmt.Fprintf(&b, "rewrites  traces=%d installed=%d degraded=%d evictions=%d\n",
		st.Traces, st.Promoted, st.Degraded, st.Evictions)
	if sheds := st.Sheds[0] + st.Sheds[1] + st.Sheds[2]; sheds > 0 || st.DeadlineSheds > 0 {
		fmt.Fprintf(&b, "admission sheds=%d (high=%d normal=%d low=%d) deadline=%d\n",
			sheds, st.Sheds[PriorityHigh], st.Sheds[PriorityNormal], st.Sheds[PriorityLow],
			st.DeadlineSheds)
	}
	if p := i.Persist; p != nil {
		fmt.Fprintf(&b, "persist   warm_hits=%d relocated=%d reval_fails=%s quarantined=%d puts=%d gen=%d remote[hits=%d puts=%d timeouts=%d errs=%d queue=%d] breaker_open=%v\n",
			p.WarmHits, p.Relocated, p.RevalFailsText(), p.Quarantined, p.Puts, p.Generation,
			p.RemoteHits, p.RemotePuts, p.RemoteTOs, p.RemoteErrs, p.RemoteQueue, p.BreakerOpen)
	}
	fmt.Fprintf(&b, "tiering   tracked=%d promoted=%d failed=%d\n",
		i.TrackedPromotions, st.TierPromotions, st.TierDemotions)

	if len(i.Shards) > 1 {
		fmt.Fprintf(&b, "\n%-6s %9s %9s %9s %9s %9s %9s %12s\n",
			"shard", "queue", "submitted", "hits", "traces", "sheds", "tracked", "ewma")
		for id, sh := range i.Shards {
			ss := sh.Stats
			fmt.Fprintf(&b, "s%-5d %4d/%-4d %9d %9d %9d %9d %9d %12s\n",
				id, sh.QueueLen, sh.QueueCap, ss.Submitted, ss.CacheHits, ss.Traces,
				ss.Sheds[0]+ss.Sheds[1]+ss.Sheds[2], sh.TrackedPromotions,
				fmtNS(int64(sh.EwmaRewriteNS)))
		}
	}

	if len(i.Stages) > 0 {
		fmt.Fprintf(&b, "\n%-12s %-5s %9s %12s %12s %12s %12s\n",
			"stage", "tier", "count", "p50", "p99", "p999", "max")
		for _, sq := range i.Stages {
			fmt.Fprintf(&b, "%-12s %-5s %9d %12s %12s %12s %12s\n",
				sq.StageS, sq.TierS, sq.Count,
				fmtNS(sq.P50NS), fmtNS(sq.P99NS), fmtNS(sq.P999NS), fmtNS(sq.MaxNS))
		}
	}

	if len(i.Entries) > 0 {
		fmt.Fprintf(&b, "\n%-12s %-12s %-5s %-8s %9s %9s %5s  %s\n",
			"fn", "addr", "tier", "state", "calls", "samples", "refs", "variants")
		for _, e := range i.Entries {
			state := "live"
			switch {
			case e.Pending:
				state = "pending"
			case e.Deopted:
				state = "deopted"
			case e.Degraded:
				state = "degraded"
			}
			if e.Reason != "" {
				state += "(" + e.Reason + ")"
			}
			fmt.Fprintf(&b, "0x%-10x 0x%-10x %-5s %-8s %9d %9d %5d  %d\n",
				e.Fn, e.Addr, e.Tier, state, e.HotCalls, e.HotSamples, e.Refs, len(e.Variants))
			for _, v := range e.Variants {
				live := "live"
				if !v.Live {
					live = "dead"
				}
				guards := "unconditional"
				if len(v.Guards) > 0 {
					parts := make([]string, len(v.Guards))
					for gi, g := range v.Guards {
						parts[gi] = fmt.Sprintf("a%d=%d", g.Param, g.Value)
					}
					guards = strings.Join(parts, ",")
				}
				fmt.Fprintf(&b, "  · %-24s %-5s %-4s 0x%-10x %5dB calls=%d samples=%d",
					guards, v.Tier, live, v.Addr, v.CodeSize, v.HotCalls, v.HotSamples)
				if v.GuardHits+v.GuardMisses > 0 {
					fmt.Fprintf(&b, " hit=%d miss=%d streak=%d", v.GuardHits, v.GuardMisses, v.MissStreak)
				}
				b.WriteByte('\n')
			}
		}
	}

	if len(i.Events) > 0 {
		fmt.Fprintf(&b, "\nflight recorder (newest %d):\n%s", len(i.Events), obs.FormatEvents(i.Events))
	}
	return b.String()
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
