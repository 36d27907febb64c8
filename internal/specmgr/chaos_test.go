package specmgr_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/specmgr"
)

// chaosPoints are the armed injection points, iterated by the
// fault→event correspondence check each seed.
var chaosPoints = []faultinject.Point{
	faultinject.PointOpcode, faultinject.PointBudget, faultinject.PointPanic,
	faultinject.PointJITAlloc, faultinject.PointDispatch,
}

// chaosBaseRates are chaosPoints' rates at multiplier 1. SiteTrace points
// fire per traced instruction, so their rates stay small.
var chaosBaseRates = [...]float64{0.002, 0.002, 0.001, 0.5, 0.5}

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

// TestChaosNeverWrongNeverCrashed drives stencil workloads through
// seed-varied fault injection until at least 1000 faults have fired
// (about 150 under -short) and asserts the robustness invariant on every
// run: the checksum always equals the reference, no call ever fails, no
// panic ever escapes. Failures may only cost speed — degraded and
// deoptimized entries run the original kernel.
//
// One machine and workload are shared across seeds (compilation is the
// dominant cost); every seed releases its entries and restores the
// mutated descriptor, and the final code-buffer accounting is checked so
// chaos cannot leak JIT space either.
func TestChaosNeverWrongNeverCrashed(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("flight recorder tail:\n%s", obs.FormatEvents(obs.TailEvents(64)))
		}
		obs.Disable()
		obs.Reset()
	})
	m, w := newStencil(t)
	poke := loadPoke(t, m)
	baseline := m.JITAlloc.FreeBytes()

	const iters = 3
	target := uint64(1000)
	if testing.Short() {
		target = 150
	}
	cell := w.M1 + uint64((gridXS+1)*8)

	var fired uint64
	runs, fallbacks, degradedRuns, deoptRuns, variantDeopts := 0, 0, 0, 0, 0
	firedBy := make(map[faultinject.Point]uint64)
	t.Cleanup(func() {
		var b strings.Builder
		for _, p := range chaosPoints {
			fmt.Fprintf(&b, " %s=%d", p, firedBy[p])
		}
		t.Logf("fired per point over %d runs (%d armed by the rotating fallback):%s", runs, fallbacks, b.String())
	})
	for seed := int64(1); fired < target; seed++ {
		runs++
		seqBefore := obs.Default.Recorder.Seq()

		inj := faultinject.New(seed)
		// Rates vary by seed so every point gets rounds where it
		// dominates and rounds where it is silent. Dispatch fires only in
		// a guarded rewrite (seed%4 == 0, below), so its term must vary
		// among those: (seed/4)%2 arms it on every other one. The mix
		// leaves every point off when seed%216 is 0 or 162; such a seed
		// arms one point, rotating, at its base rate.
		mult := [...]int64{seed % 3, (seed / 3) % 3, (seed / 9) % 3, seed % 2, (seed / 4) % 2}
		if mult == [5]int64{} {
			mult[(seed/108)%5] = 1
			fallbacks++
		}
		for j, p := range chaosPoints {
			inj.Arm(p, chaosBaseRates[j]*float64(mult[j]))
		}

		cfg, args := w.ApplyConfig()
		cfg.Inject = inj.Hook()
		if seed%5 == 0 {
			// Genuine (non-injected) budget exhaustion on some seeds.
			cfg.Budget = &brew.Budget{MaxTracedInstrs: int(10 + seed%200)}
		}
		mgr := specmgr.New(m, specmgr.Policy{Respecialize: true, GuardMissLimit: 3})

		var e *specmgr.Entry
		var err error
		if seed%4 == 0 {
			e, err = mgr.SpecializeGuarded(cfg, w.Apply,
				[]brew.ParamGuard{{Param: 2, Value: gridXS}}, args, nil)
		} else {
			e, err = mgr.Specialize(cfg, w.Apply, args, nil)
		}
		if err != nil && e == nil {
			t.Fatalf("seed %d: specialize returned no entry: %v", seed, err)
		}
		if e.Degraded() {
			degradedRuns++
		}

		// On guarded seeds, grow the entry into a variant table: a sibling
		// for a different guard value, rewritten without the frozen
		// descriptor and under the same injector (the install may fail;
		// that must only cost speed). The frozen-store invariant below then
		// exercises variant-level deopt: only the frozen variant demotes.
		frozen := e.VariantFor([]uint64{0, gridXS, 0})
		var sib *specmgr.Variant
		if seed%4 == 0 {
			scfg := brew.NewConfig()
			scfg.Inject = inj.Hook()
			sg := []brew.ParamGuard{{Param: 2, Value: gridXS + 1}}
			sout, serr := brew.Do(m, &brew.Request{
				Config: scfg, Fn: w.Apply, Guards: sg,
				Args: []uint64{0, 0, 0}, Mode: brew.ModeDegrade,
			})
			sib, _ = mgr.InstallVariant(e, scfg, sg, []uint64{0, 0, 0}, nil, sout, serr)
		}

		// Invariant 1: the checksum matches the golden reference whether
		// the entry is specialized or degraded.
		if err := w.ResetMatrices(); err != nil {
			t.Fatal(err)
		}
		got, err := w.RunSweeps(e.Addr(), false, iters)
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		if want := w.Golden(iters); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: wrong result %g, want %g (degraded=%v)",
				seed, got, want, e.Degraded())
		}

		if seed%2 == 0 {
			// Invariant 2: mutating the frozen descriptor never yields a
			// stale result. Non-degraded entries must deoptimize; degraded
			// ones re-read memory anyway.
			wasDegraded := e.Degraded()
			if _, err := m.CallFloat(poke, []uint64{w.S5 + 8}, []float64{-0.5}); err != nil {
				t.Fatalf("seed %d: poke: %v", seed, err)
			}
			if sib != nil && sib.Live() {
				// A live sibling without the assumption keeps the entry
				// serving: the store may only demote the frozen variant.
				if frozen != nil && frozen.Live() {
					t.Fatalf("seed %d: frozen store did not demote the frozen variant", seed)
				}
				if d, _ := e.Deopted(); d {
					t.Fatalf("seed %d: entry deopted despite a live sibling", seed)
				}
				if frozen != nil {
					variantDeopts++
				}
			} else if d, _ := e.Deopted(); !d && !wasDegraded {
				t.Fatalf("seed %d: frozen store did not deoptimize", seed)
			}
			if d, _ := e.Deopted(); d {
				deoptRuns++
			}

			// A managed call may lazily respecialize — under the same
			// injector, so the attempt itself can fail into degradation.
			wantCell, err := m.CallFloat(w.Apply, []uint64{cell, gridXS, w.S5}, nil)
			if err != nil {
				t.Fatalf("seed %d: reference cell: %v", seed, err)
			}
			gotCell, err := e.CallFloat([]uint64{cell, gridXS, w.S5}, nil)
			if err != nil {
				t.Fatalf("seed %d: managed cell call: %v", seed, err)
			}
			if math.Abs(gotCell-wantCell) > 1e-12 {
				t.Fatalf("seed %d: cell = %g, want %g after mutation", seed, gotCell, wantCell)
			}

			// Full-sweep agreement with the original kernel on the mutated
			// descriptor.
			if err := w.ResetMatrices(); err != nil {
				t.Fatal(err)
			}
			want, err := w.RunSweeps(w.Apply, false, iters)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ResetMatrices(); err != nil {
				t.Fatal(err)
			}
			got, err := w.RunSweeps(e.Addr(), false, iters)
			if err != nil {
				t.Fatalf("seed %d: post-mutation sweep: %v", seed, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: stale result after mutation: %g, want %g", seed, got, want)
			}

			// Restore the descriptor for the next seed.
			if _, err := m.CallFloat(poke, []uint64{w.S5 + 8}, []float64{-1.0}); err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
		}

		mgr.Release(e)

		// Fault→event correspondence: every fault this seed's injector
		// fired must have left a recorded KindFault event, per point.
		recorded := faultEventsSince(seqBefore)
		for _, p := range chaosPoints {
			if got, want := recorded[string(p)], inj.Fired(p); got != want {
				t.Fatalf("seed %d: %d recorded %s fault events, injector fired %d",
					seed, got, p, want)
			}
		}
		// Lifecycle correspondence: an entry-level deopt this seed must
		// have left a deopt or demotion event.
		if d, _ := e.Deopted(); d {
			lifecycle := 0
			for _, ev := range obs.Events() {
				if ev.Seq < seqBefore {
					continue
				}
				switch ev.Kind {
				case obs.KindEntryDeopt, obs.KindVariantDemote, obs.KindWatchHit:
					lifecycle++
				}
			}
			if lifecycle == 0 {
				t.Fatalf("seed %d: entry deopted with no recorded lifecycle event", seed)
			}
		}

		fired += inj.TotalFired()
		for _, p := range chaosPoints {
			firedBy[p] += inj.Fired(p)
		}
	}

	if got := m.JITAlloc.FreeBytes(); got != baseline {
		t.Errorf("chaos leaked code-buffer space: %d free, baseline %d", got, baseline)
	}
	t.Logf("chaos: %d runs, %d injected faults, %d degraded, %d deopts, %d variant-level deopts",
		runs, fired, degradedRuns, deoptRuns, variantDeopts)
}
