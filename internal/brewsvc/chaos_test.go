package brewsvc_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// chaosPoints are the injection points the chaos tests arm; the
// fault→event correspondence check iterates them.
var chaosPoints = []faultinject.Point{
	faultinject.PointOpcode, faultinject.PointBudget, faultinject.PointPanic,
	faultinject.PointJITAlloc, faultinject.PointDispatch,
}

// chaosBaseRates are chaosPoints' rates at multiplier 1.
var chaosBaseRates = [...]float64{0.002, 0.002, 0.001, 0.5, 0.5}

// logFiredPerPoint logs, when the test ends, how often each point fired
// over the whole run and how many injectors the suite's mix alone left
// unarmed, so the counts show under -v and with any failure.
func logFiredPerPoint(t *testing.T, points []faultinject.Point, fired map[faultinject.Point]uint64, rounds, fallbacks *int) {
	t.Cleanup(func() {
		var b strings.Builder
		for _, p := range points {
			fmt.Fprintf(&b, " %s=%d", p, fired[p])
		}
		t.Logf("fired per point over %d rounds (%d injectors armed by the rotating fallback):%s", *rounds, *fallbacks, b.String())
	})
}

// faultEventsSince counts the flight recorder's KindFault events recorded
// at or after seq, keyed by injection point.
func faultEventsSince(seq uint64) map[string]uint64 {
	counts := make(map[string]uint64)
	for _, e := range obs.Events() {
		if e.Seq >= seq && e.Kind == obs.KindFault {
			counts[e.Reason]++
		}
	}
	return counts
}

// dumpRecorderOnFailure snapshots the flight-recorder tail into the test
// log if the test fails, so a chaos failure ships its own lifecycle
// evidence.
func dumpRecorderOnFailure(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("flight recorder tail:\n%s", obs.FormatEvents(obs.TailEvents(64)))
		}
	})
}

// TestChaosServiceNeverWrongNeverLeaks drives seed-varied fault injection
// through the concurrent service until at least 500 faults have fired
// (about 100 under -short) and asserts the service-level robustness
// invariant on every round:
//
//   - a fault degrades only the request carrying the injector — the clean
//     requests submitted concurrently in the same round always specialize
//     (the cache is never poisoned, the queue never wedges);
//   - every outcome is callable and the sweep checksum always matches the
//     golden reference, specialized or degraded;
//   - after Close the code-buffer accounting returns to the baseline, so
//     chaos cannot leak JIT space through the cache, the orphan list, or
//     the queue;
//   - every injected fault leaves a matching KindFault event in the
//     flight recorder (checked per round against the injectors' fired
//     counts, per injection point), and a failing round dumps the
//     recorder tail into the test log.
//
// Execution happens strictly after all of a round's outcomes are in — the
// machine must not run emulated code while rewrites are in flight.
func TestChaosServiceNeverWrongNeverLeaks(t *testing.T) {
	withObs(t)
	dumpRecorderOnFailure(t)
	m, w := newStencil(t)
	baseline := m.JITFreeBytes()

	svc := brewsvc.Open(m, brewsvc.WithWorkers(4), brewsvc.WithQueueCap(32), brewsvc.WithCache(2, 4))

	const iters = 3
	target := uint64(500)
	if testing.Short() {
		target = 100
	}

	var fired uint64
	rounds, fallbacks, degradedReqs := 0, 0, 0
	firedBy := make(map[faultinject.Point]uint64)
	logFiredPerPoint(t, chaosPoints, firedBy, &rounds, &fallbacks)
	for seed := int64(1); fired < target; seed++ {
		rounds++
		seqBefore := obs.Default.Recorder.Seq()

		// Per-round requests: three fault-injected (each with its own
		// injector — Inject-bearing requests are isolated by design) and
		// one clean cacheable request racing them through the same queue.
		injs := make([]*faultinject.Injector, 3)
		reqs := make([]*brewsvc.Request, 0, 4)
		for i := range injs {
			s := seed + int64(i)
			inj := faultinject.New(s)
			// Dispatch fires only in a guarded rewrite (s%4 == 0, below),
			// so its term must vary among those: (s/4)%2 arms it on every
			// other one. The mix leaves every point off when s%216 is 0
			// or 162; such an injector arms one point, rotating, at its
			// base rate.
			mult := [...]int64{s % 3, (s / 3) % 3, (s / 9) % 3, s % 2, (s / 4) % 2}
			if mult == [5]int64{} {
				mult[(s/108)%5] = 1
				fallbacks++
			}
			for j, p := range chaosPoints {
				inj.Arm(p, chaosBaseRates[j]*float64(mult[j]))
			}
			injs[i] = inj

			cfg, args := w.ApplyConfig()
			cfg.Inject = inj.Hook()
			if s%5 == 0 {
				// Genuine (non-injected) per-request budget exhaustion.
				cfg.Budget = &brew.Budget{MaxTracedInstrs: int(10 + s%200)}
			}
			req := &brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}
			if s%4 == 0 {
				req.Guards = []brew.ParamGuard{{Param: 2, Value: gridXS}}
			}
			reqs = append(reqs, req)
		}
		cleanCfg, cleanArgs := w.ApplyConfig()
		reqs = append(reqs, &brewsvc.Request{Config: cleanCfg, Fn: w.Apply, Args: cleanArgs})

		outs := make([]brewsvc.Outcome, len(reqs))
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req *brewsvc.Request) {
				defer wg.Done()
				outs[i] = svc.Do(req)
			}(i, req)
		}
		wg.Wait()

		clean := outs[len(outs)-1]
		if clean.Degraded {
			t.Fatalf("seed %d: clean request degraded: %s (%v) — fault leaked across requests",
				seed, clean.Reason, clean.Err)
		}
		for i, out := range outs {
			if out.Addr == 0 {
				t.Fatalf("seed %d: request %d has no callable address", seed, i)
			}
			if out.Degraded {
				degradedReqs++
			}

			// The checksum matches the golden reference whether the
			// outcome is specialized or degraded.
			if err := w.ResetMatrices(); err != nil {
				t.Fatal(err)
			}
			got, err := w.RunSweeps(out.Addr, false, iters)
			if err != nil {
				t.Fatalf("seed %d: request %d sweep: %v", seed, i, err)
			}
			if want := w.Golden(iters); math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: request %d wrong result %g, want %g (degraded=%v)",
					seed, i, got, want, out.Degraded)
			}
		}

		// Fault→event correspondence: every fault the round's injectors
		// fired must have left a recorded KindFault event at this point.
		recorded := faultEventsSince(seqBefore)
		for _, p := range chaosPoints {
			var want uint64
			for _, inj := range injs {
				want += inj.Fired(p)
			}
			if got := recorded[string(p)]; got != want {
				t.Fatalf("seed %d: %d recorded %s fault events, injectors fired %d",
					seed, got, p, want)
			}
		}

		for _, inj := range injs {
			fired += inj.TotalFired()
			for _, p := range chaosPoints {
				firedBy[p] += inj.Fired(p)
			}
		}
	}

	st := svc.Stats()
	svc.Close()
	if got := m.JITFreeBytes(); got != baseline {
		t.Errorf("chaos leaked code-buffer space: %d free, baseline %d", got, baseline)
	}
	t.Logf("chaos: %d rounds, %d injected faults, %d degraded requests, stats %+v",
		rounds, fired, degradedReqs, st)
}
