package brewsvc_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/obs"
)

// withObs enables observation for the test and restores the disabled,
// empty state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// TestTraceReconstructionCoalescedBurst is the acceptance scenario for
// request-lifecycle tracing: a 64-caller coalesced burst yields exactly
// one flight trace whose events reconstruct the full lifecycle — the
// creator's submit and cache-lookup spans, the queue wait, the rewrite
// and install, every coalesced caller's join span linked to the flight,
// and later the asynchronous promotion linked back to the originating
// trace.
func TestTraceReconstructionCoalescedBurst(t *testing.T) {
	withObs(t)
	m, w := newStencil(t)
	const after = 4
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithQueueCap(128), brewsvc.WithPromotion(after))
	defer svc.Close()

	// Deterministic coalescing, independent of scheduler timing: an
	// uncacheable decoy whose Inject hook blocks parks the single worker
	// inside its rewrite. The burst creator's flight then waits in the
	// queue — still in the inflight table — while the 63 joiners submit,
	// so every one of them coalesces onto it. Only then is the decoy
	// released.
	const n = 64
	block := make(chan struct{})
	dcfg, dargs := w.ApplyConfig()
	dcfg.Inject = func(string) error { <-block; return nil }
	decoy := svc.Submit(&brewsvc.Request{Config: dcfg, Fn: w.Apply, Args: dargs})

	cfg0, args0 := applyVariant(w, 0)
	cfg0.Effort = brew.EffortQuick
	tickets := make([]*brewsvc.Ticket, n)
	tickets[0] = svc.Submit(&brewsvc.Request{Config: cfg0, Fn: w.Apply, Args: args0})

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg, args := applyVariant(w, i)
			cfg.Effort = brew.EffortQuick
			tickets[i] = svc.Submit(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		}(i)
	}
	wg.Wait()
	close(block)
	if d := decoy.Outcome(); d.Degraded {
		t.Fatalf("decoy degraded: %s (%v)", d.Reason, d.Err)
	}
	var out brewsvc.Outcome
	for i, tk := range tickets {
		out = tk.Outcome()
		if out.Degraded {
			t.Fatalf("caller %d degraded: %s (%v)", i, out.Reason, out.Err)
		}
	}
	st := svc.Stats()
	if st.Traces != 2 {
		t.Fatalf("traces = %d, want 2 (decoy + one coalesced burst)", st.Traces)
	}
	if st.CoalesceHits != n-1 {
		t.Fatalf("coalesce hits = %d, want %d (stats %+v)", st.CoalesceHits, n-1, st)
	}

	// The tier-0 rewrite span identifies the burst's flight trace (the
	// decoys rewrote at full effort).
	var flight obs.TraceID
	rewrites := 0
	for _, e := range obs.Events() {
		if e.Kind == obs.KindSpan && e.Stage == obs.StageRewrite && e.Tier == obs.TierQuick {
			flight, rewrites = e.Trace, rewrites+1
		}
	}
	if rewrites != 1 || flight == 0 {
		t.Fatalf("%d tier-0 rewrite spans (flight trace %#x), want exactly 1", rewrites, flight)
	}

	stageCount := func(evs []obs.Event, s obs.Stage) int {
		c := 0
		for _, e := range evs {
			if e.Kind == obs.KindSpan && e.Stage == s {
				c++
			}
		}
		return c
	}
	evs := obs.TraceEvents(flight)
	for _, want := range []struct {
		stage obs.Stage
		n     int
	}{
		{obs.StageSubmit, 1},      // the creator's submit span carries the flight trace
		{obs.StageCacheLookup, 1}, // ditto its miss lookup
		{obs.StageQueue, 1},
		{obs.StageRewrite, 1},
		{obs.StageInstall, 1},
		{obs.StageCoalesce, int(st.CoalesceHits)}, // every joiner linked to the flight
	} {
		if got := stageCount(evs, want.stage); got != want.n {
			t.Errorf("trace has %d %s spans, want %d", got, want.stage, want.n)
		}
	}
	for _, e := range evs {
		if e.Fn != w.Apply {
			t.Fatalf("trace event %s has fn %#x, want %#x", e.Format(), e.Fn, w.Apply)
		}
	}

	// Drive the entry hot and pump: the promotion runs under its own
	// trace but links back to the flight that installed tier-0.
	cell := w.M1 + uint64((gridXS+1)*8)
	callArgs := []uint64{cell, gridXS, w.S5}
	want, err := m.CallFloat(w.Apply, callArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < after; i++ {
		got, err := out.Entry.CallFloat(callArgs, nil)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Fatalf("tier-0 call %d = %g, %v; want %g", i, got, err, want)
		}
	}
	tks := svc.PumpPromotions()
	if tks.Len() != 1 {
		t.Fatalf("%d promotions pumped, want 1", tks.Len())
	}
	if p := tks.Tickets()[0].Outcome(); p.Degraded {
		t.Fatalf("promotion degraded: %s (%v)", p.Reason, p.Err)
	}

	evs = obs.TraceEvents(flight)
	promoSpans, promoOK := 0, 0
	for _, e := range evs {
		switch {
		case e.Kind == obs.KindSpan && e.Stage == obs.StagePromotion:
			promoSpans++
			if e.Trace == flight || e.Link != flight {
				t.Fatalf("promotion span %s: want own trace linked to %#x", e.Format(), flight)
			}
		case e.Kind == obs.KindPromoteOK:
			promoOK++
		}
	}
	if promoSpans != 1 || promoOK != 1 {
		t.Fatalf("trace has %d promotion spans and %d promote-ok events, want 1 and 1", promoSpans, promoOK)
	}

	// The stage aggregates saw every span the trace did.
	quantOK := false
	for _, sq := range obs.StageSnapshot() {
		if sq.StageS == "rewrite" && sq.TierS == "quick" && sq.Count == 1 && sq.P50NS > 0 {
			quantOK = true
		}
	}
	if !quantOK {
		t.Fatalf("stage snapshot missing rewrite/quick cell: %+v", obs.StageSnapshot())
	}
}

// TestObservationLeavesCyclesUnchanged is E8c/E8d: observation instruments
// only the host-side control plane, never the emulated data plane, so the
// steady state of service-installed code costs bit-identical cycles with
// tracing off and on. The first run after install is discarded: it is a
// few thousand cycles hotter while dispatch settles, whatever the mode.
func TestObservationLeavesCyclesUnchanged(t *testing.T) {
	withObs(t)
	obs.Disable()
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2))
	defer svc.Close()
	cfg, args := w.ApplyConfig()
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("submit degraded: %s (%v)", out.Reason, out.Err)
	}

	const iters = 3
	steadyCycles(t, w, out.Addr, iters)
	disabled := steadyCycles(t, w, out.Addr, iters)
	for rep := 0; rep < 2; rep++ {
		obs.Enable()
		enabled := steadyCycles(t, w, out.Addr, iters)
		obs.Disable()
		again := steadyCycles(t, w, out.Addr, iters)
		if enabled != disabled || again != disabled {
			t.Fatalf("rep %d: steady state %d cycles traced, %d and %d untraced — tracing leaked into the data plane",
				rep, enabled, disabled, again)
		}
	}
}

// TestInspectSnapshot exercises the structured live-introspection
// surface: queue shape, cache occupancy, the per-entry variant table and
// the observation tail, plus the rendered dashboard.
func TestInspectSnapshot(t *testing.T) {
	withObs(t)
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2), brewsvc.WithQueueCap(32))
	defer svc.Close()

	cfg, args := applyVariant(w, 0)
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
	if out.Degraded {
		t.Fatalf("submit degraded: %s (%v)", out.Reason, out.Err)
	}

	ins := svc.Inspect()
	if ins.QueueCap != 32 || ins.Workers != 2 || ins.Closed {
		t.Fatalf("queue cap %d workers %d closed %v, want 32/2/false", ins.QueueCap, ins.Workers, ins.Closed)
	}
	if ins.QueueLen != 0 || ins.QueueDepths != [3]int{} {
		t.Fatalf("idle service has queued flights: %+v", ins.QueueDepths)
	}
	if ins.CacheLen != 1 {
		t.Fatalf("cache len = %d, want 1", ins.CacheLen)
	}
	sum := 0
	for _, nsh := range ins.CacheShards {
		sum += nsh
	}
	if sum != ins.CacheLen {
		t.Fatalf("shard occupancy %v sums to %d, want %d", ins.CacheShards, sum, ins.CacheLen)
	}
	if ins.Stats.Traces != 1 || ins.Stats.Promoted != 1 {
		t.Fatalf("stats traces=%d promoted=%d, want 1/1", ins.Stats.Traces, ins.Stats.Promoted)
	}
	if len(ins.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(ins.Entries))
	}
	e := ins.Entries[0]
	if e.Fn != w.Apply || e.Addr == 0 || e.Refs < 1 {
		t.Fatalf("entry fn=%#x addr=%#x refs=%d", e.Fn, e.Addr, e.Refs)
	}
	if len(e.Variants) != 1 || !e.Variants[0].Live || e.Variants[0].Addr == 0 || e.Variants[0].CodeSize == 0 {
		t.Fatalf("variant table %+v, want one live variant with code", e.Variants)
	}
	if e.Tier != e.Variants[0].Tier {
		t.Fatalf("entry tier %q != variant tier %q", e.Tier, e.Variants[0].Tier)
	}
	if len(ins.Stages) == 0 || len(ins.Events) == 0 {
		t.Fatalf("enabled inspection missing stages (%d) or events (%d)", len(ins.Stages), len(ins.Events))
	}

	text := ins.Render()
	for _, wantSub := range []string{
		"service   running, 2 workers",
		"queue     0/32",
		"cache     1 slots",
		"stage", "rewrite", "install",
		"flight recorder",
	} {
		if !strings.Contains(text, wantSub) {
			t.Fatalf("rendered dashboard missing %q:\n%s", wantSub, text)
		}
	}

	// Disabled observation degrades the snapshot gracefully: structure
	// stays, stage quantiles and the event tail disappear.
	obs.Disable()
	ins = svc.Inspect()
	if len(ins.Stages) != 0 || len(ins.Events) != 0 {
		t.Fatalf("disabled inspection still carries %d stages / %d events", len(ins.Stages), len(ins.Events))
	}
	if len(ins.Entries) != 1 || ins.CacheLen != 1 {
		t.Fatal("disabling observation lost structural state")
	}
}

// TestServeIntrospection smoke-tests the opt-in HTTP listener: metrics
// exposition, JSON snapshot, JSON event dump and the text dashboard.
func TestServeIntrospection(t *testing.T) {
	withObs(t)
	m, w := newStencil(t)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(2), brewsvc.WithQueueCap(32))
	defer svc.Close()

	cfg, args := applyVariant(w, 1)
	if out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}); out.Degraded {
		t.Fatalf("submit degraded: %s (%v)", out.Reason, out.Err)
	}

	addr, stop, err := svc.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, wantSub := range []string{"brew_span_ns", "brew_flight_recorder_seq", `stage="rewrite"`} {
		if !strings.Contains(metrics, wantSub) {
			t.Fatalf("/metrics missing %q:\n%s", wantSub, metrics)
		}
	}

	var ins brewsvc.Inspection
	if err := json.Unmarshal([]byte(get("/inspect")), &ins); err != nil {
		t.Fatalf("/inspect is not JSON: %v", err)
	}
	if ins.QueueCap != 32 || len(ins.Entries) != 1 || len(ins.Events) == 0 {
		t.Fatalf("/inspect snapshot off: cap=%d entries=%d events=%d", ins.QueueCap, len(ins.Entries), len(ins.Events))
	}

	var evs []obs.Event
	if err := json.Unmarshal([]byte(get("/events")), &evs); err != nil {
		t.Fatalf("/events is not JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("/events is empty after a completed flight")
	}

	if dash := get("/"); !strings.Contains(dash, "service   running") {
		t.Fatalf("dashboard endpoint off:\n%s", dash)
	}
	if resp, err := http.Get("http://" + addr + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /nope: %s, want 404", resp.Status)
		}
	}

	stop()
	stop() // idempotent
}
