package obs

import (
	"strings"
	"testing"
	"time"
)

func resetObs(t *testing.T) {
	t.Helper()
	Disable()
	Reset()
	t.Cleanup(func() {
		Disable()
		Reset()
	})
}

// Disabled, every entry point is a no-op and allocation-free — the
// zero-cost contract the service hot path relies on.
func TestDisabledPathAllocationFree(t *testing.T) {
	resetObs(t)
	allocs := testing.AllocsPerRun(1000, func() {
		tid := StartTrace()
		start := Now()
		EndSpan(tid, StageRewrite, TierQuick, start, 0x1000, 0)
		Emit(Event{Kind: KindDegrade, Reason: "trace-budget"})
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f per op, want 0", allocs)
	}
	if StartTrace() != 0 {
		t.Fatal("disabled StartTrace must return 0")
	}
	if Now() != 0 {
		t.Fatal("disabled Now must return 0")
	}
	if len(Events()) != 0 {
		t.Fatal("disabled entry points recorded events")
	}
	if len(StageSnapshot()) != 0 {
		t.Fatal("disabled entry points recorded spans")
	}
}

// A span recorded with a stale (pre-Enable) zero trace ID stays a no-op
// even after observation is enabled mid-flight.
func TestZeroTraceSpanIgnored(t *testing.T) {
	resetObs(t)
	start := Now() // disabled: 0
	Enable()
	EndSpan(0, StageRewrite, TierQuick, start, 0x1000, 0)
	if len(Events()) != 0 {
		t.Fatal("zero-trace span was recorded")
	}
}

// Enabled, spans aggregate into per-stage/per-tier exact quantiles and
// land in the flight recorder; TraceEvents reassembles a lifecycle from
// direct and linked attribution.
func TestSpansAggregateAndReconstruct(t *testing.T) {
	resetObs(t)
	Enable()

	flight := StartTrace()
	caller := StartTrace()
	if flight == 0 || caller == 0 || flight == caller {
		t.Fatalf("trace ids: flight=%d caller=%d", flight, caller)
	}

	start := Now()
	time.Sleep(time.Millisecond)
	EndSpan(flight, StageRewrite, TierQuick, start, 0xabc, 0)
	EndSpan(flight, StageInstall, TierQuick, Now(), 0xabc, 0)
	// The coalesced caller's span links to the flight's trace.
	EndSpan(caller, StageCoalesce, TierNone, Now(), 0xabc, flight)
	// The async promotion gets its own trace, linked back to the flight.
	promo := StartTrace()
	EndSpan(promo, StagePromotion, TierFull, Now(), 0xabc, flight)

	got := TraceEvents(flight)
	if len(got) != 4 {
		t.Fatalf("TraceEvents(flight) returned %d events, want 4 (rewrite, install, coalesce-linked, promotion-linked):\n%s",
			len(got), FormatEvents(got))
	}
	stages := map[Stage]bool{}
	for _, e := range got {
		stages[e.Stage] = true
	}
	for _, s := range []Stage{StageRewrite, StageInstall, StageCoalesce, StagePromotion} {
		if !stages[s] {
			t.Fatalf("lifecycle reconstruction missing stage %s:\n%s", s, FormatEvents(got))
		}
	}

	snap := StageSnapshot()
	var rewrite *StageQuantiles
	for i := range snap {
		if snap[i].Stage == StageRewrite && snap[i].Tier == TierQuick {
			rewrite = &snap[i]
		}
	}
	if rewrite == nil {
		t.Fatal("stage snapshot missing rewrite/quick cell")
	}
	if rewrite.Count != 1 || !rewrite.Exact {
		t.Fatalf("rewrite cell count=%d exact=%v, want 1/true", rewrite.Count, rewrite.Exact)
	}
	if rewrite.P50NS < int64(time.Millisecond/2) {
		t.Fatalf("rewrite p50 = %dns, want >= ~1ms (slept 1ms inside the span)", rewrite.P50NS)
	}
	if rewrite.P999NS < rewrite.P50NS || rewrite.MaxNS < rewrite.P999NS {
		t.Fatalf("quantiles not monotone: p50=%d p999=%d max=%d", rewrite.P50NS, rewrite.P999NS, rewrite.MaxNS)
	}
}

// Exact quantiles really are exact: a known sample set must return the
// exact nearest-rank elements, not bucket bounds.
func TestExactQuantileValues(t *testing.T) {
	resetObs(t)
	Enable()
	tr := NewTracer()
	// 1..1000 in a scrambled order.
	for i := 0; i < 1000; i++ {
		tr.observe(StageQueue, TierNone, int64((i*617)%1000+1))
	}
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d cells, want 1", len(snap))
	}
	q := snap[0]
	if !q.Exact {
		t.Fatal("1000 samples should be under the exact cap")
	}
	if q.P50NS != 500 || q.P99NS != 990 || q.P999NS != 999 {
		t.Fatalf("exact quantiles p50=%d p99=%d p999=%d, want 500/990/999", q.P50NS, q.P99NS, q.P999NS)
	}
	if q.MaxNS != 1000 || q.Count != 1000 {
		t.Fatalf("max=%d count=%d, want 1000/1000", q.MaxNS, q.Count)
	}
}

// Past the per-cell cap the cell falls back to exponential-bucket
// quantiles: still rank-exact, value resolution bucket-wide, memory
// bounded.
func TestQuantileFallbackPastCap(t *testing.T) {
	resetObs(t)
	Enable()
	tr := NewTracer()
	n := maxExactSamples + 5000
	for i := 0; i < n; i++ {
		tr.observe(StageQueue, TierNone, 1000) // lands exactly on the le=1000 bound (250,500,1000,...)
	}
	snap := tr.Snapshot()
	q := snap[0]
	if q.Exact {
		t.Fatalf("%d samples past cap %d still reported exact", n, maxExactSamples)
	}
	if q.Count != uint64(n) {
		t.Fatalf("count = %d, want %d", q.Count, n)
	}
	// Every sample is 1000ns; the 250*2^k bounds include 1000 exactly, so
	// even bucket quantiles land on the true value.
	if q.P50NS != 1000 || q.P999NS != 1000 {
		t.Fatalf("bucket quantiles p50=%d p999=%d, want 1000/1000", q.P50NS, q.P999NS)
	}
	if len(tr.cells[StageQueue][TierNone].samples) != maxExactSamples {
		t.Fatalf("sample buffer grew past cap: %d", len(tr.cells[StageQueue][TierNone].samples))
	}
}

// The past-cap fallback buckets are 250 ns doubling, 26 of them (up to
// ~8.4 s).
func TestStageBounds(t *testing.T) {
	if len(stageBounds) != 26 {
		t.Fatalf("len(stageBounds) = %d, want 26", len(stageBounds))
	}
	want := uint64(250)
	for i, b := range stageBounds {
		if b != want {
			t.Fatalf("stageBounds[%d] = %d, want %d", i, b, want)
		}
		want *= 2
	}
}

// Prometheus exposition renders the stage summaries and the recorder
// sequence number as line-oriented name/value pairs.
func TestWritePromSmoke(t *testing.T) {
	resetObs(t)
	Enable()

	tid := StartTrace()
	EndSpan(tid, StageRewrite, TierQuick, Now(), 0xabc, 0)

	var b strings.Builder
	if err := Default.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`brew_span_ns{stage="rewrite",tier="quick",quantile="0.5"}`,
		"brew_flight_recorder_seq",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
