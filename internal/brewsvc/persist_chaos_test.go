package brewsvc_test

import (
	"math"
	"os"
	"testing"

	"repro/internal/brewsvc"
	"repro/internal/faultinject"
	"repro/internal/spstore"
)

// TestPersistChaosStoreFaultsNeverWrong drives seed-varied store fault
// injection — torn writes, truncated records, bit flips, checksum-valid
// stale assumption digests — through repeated simulated restarts sharing
// one store directory, until at least 500 store faults have fired (about
// 120 under -short). The invariant, every round:
//
//   - zero wrong executions: every outcome is callable and its sweep
//     checksum matches the golden reference, whether it was traced
//     fresh, adopted warm, or re-traced after a quarantine;
//   - zero adopted corrupt bodies: a warm hit only ever serves a record
//     that passed checksum + revalidation (checked indirectly by the
//     checksums above, and directly by the store never counting a warm
//     hit in a round whose writes were all corrupted);
//   - zero leaked JIT bytes: after Close the code buffer returns to the
//     round's baseline even when adoptions were refused mid-install;
//   - persistence is what is being tested: rounds read what earlier rounds
//     wrote (a floor on adoptions over the run), and a share of those
//     adoptions lands at an address other than the one recorded;
//   - convergence: two clean rounds at the end serve everything from the
//     store (first one re-traces whatever the chaos rounds left corrupt,
//     the second runs 100% warm).
//
// Requests run sequentially on one worker, and every boot starts with a
// different kernel: a restart does not replay the order its predecessor
// filled the JIT buffer in, so a record is routinely adopted somewhere
// else than where it was captured.
func TestPersistChaosStoreFaultsNeverWrong(t *testing.T) {
	dumpRecorderOnFailure(t)
	dir := t.TempDir()
	const iters = 3

	target := uint64(500)
	if testing.Short() {
		target = 120
	}

	// round boots a fresh, identically built machine+service against the
	// shared store directory, runs the three kernels, checks every
	// checksum, closes, and checks the JIT accounting.
	var adopted, relocated uint64 // over all rounds
	round := func(seed int64, inj *faultinject.Injector) (warm, traces uint64) {
		m, w := newStencil(t)
		baseline := m.JITFreeBytes()

		opts := spstore.Options{Dir: dir}
		if inj != nil {
			opts.Inject = inj.StoreHook()
		}
		st, err := spstore.Open(opts)
		if err != nil {
			t.Fatalf("seed %d: open store: %v", seed, err)
		}
		if inj != nil {
			// Churn: evict the oldest live record, modeling GC pressure
			// between restarts. Without it the store converges to all-warm
			// after a few rounds and the write-path fault points are never
			// consulted again; a byte budget would not do, the sweep's
			// record alone is most of the bytes and half of them is nothing.
			infos, err := st.List()
			if err != nil {
				t.Fatalf("seed %d: list: %v", seed, err)
			}
			var oldest *spstore.Info
			for i := range infos {
				if in := &infos[i]; !in.Quarantined && (oldest == nil || in.ModTime.Before(oldest.ModTime)) {
					oldest = in
				}
			}
			if oldest != nil {
				if err := os.Remove(oldest.File); err != nil {
					t.Fatalf("seed %d: evict: %v", seed, err)
				}
			}
		}
		svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st))

		type kernel struct {
			name string
			req  *brewsvc.Request
			run  func(addr uint64) (float64, error)
		}
		applyCfg, applyArgs := w.ApplyConfig()
		groupCfg, groupArgs := w.GroupedConfig()
		sweepCfg, sweepArgs := w.SweepConfig()
		kernels := []kernel{
			{"apply", &brewsvc.Request{Config: applyCfg, Fn: w.Apply, Args: applyArgs},
				func(a uint64) (float64, error) { return w.RunSweeps(a, false, iters) }},
			{"grouped", &brewsvc.Request{Config: groupCfg, Fn: w.ApplyGrouped, Args: groupArgs},
				func(a uint64) (float64, error) { return w.RunSweeps(a, true, iters) }},
			{"sweep", &brewsvc.Request{Config: sweepCfg, Fn: w.Sweep, Args: sweepArgs},
				func(a uint64) (float64, error) { return w.RunRewrittenSweeps(a, iters) }},
		}

		want := w.Golden(iters)
		first := int(uint64(seed) % uint64(len(kernels)))
		for _, k := range append(kernels[first:len(kernels):len(kernels)], kernels[:first]...) {
			out := svc.Do(k.req)
			if out.Degraded {
				t.Fatalf("seed %d: %s degraded: %s (%v) — store faults must never degrade a request",
					seed, k.name, out.Reason, out.Err)
			}
			if out.Addr == 0 {
				t.Fatalf("seed %d: %s has no callable address", seed, k.name)
			}
			if err := w.ResetMatrices(); err != nil {
				t.Fatal(err)
			}
			got, err := k.run(out.Addr)
			if err != nil {
				t.Fatalf("seed %d: %s run: %v", seed, k.name, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: %s WRONG EXECUTION: checksum %g, want %g", seed, k.name, got, want)
			}
		}

		stats := svc.Stats()
		sst := st.Stats()
		svc.Close()
		st.Close()
		if got := m.JITFreeBytes(); got != baseline {
			t.Fatalf("seed %d: leaked JIT bytes: %d free, baseline %d", seed, got, baseline)
		}
		if stats.WarmHits+stats.Traces < 3 {
			t.Fatalf("seed %d: %d warm + %d traces < 3 kernels", seed, stats.WarmHits, stats.Traces)
		}
		// A warm hit must never coexist with a revalidation bypass: every
		// served record passed the full check chain or was quarantined.
		if sst.WarmHits != stats.WarmHits {
			t.Fatalf("seed %d: store warm hits %d != service warm hits %d", seed, sst.WarmHits, stats.WarmHits)
		}
		adopted += sst.WarmHits
		relocated += sst.Relocated
		return stats.WarmHits, stats.Traces
	}

	// Chaos rounds: every boot re-arms a fresh injector over the shared
	// directory, so corrupt records written by one round ambush the next
	// round's warm start.
	var fired uint64
	rounds := 0
	for seed := int64(1); fired < target; seed++ {
		rounds++
		inj := faultinject.New(seed)
		// Vary the mix: some rounds lean on write corruption, some on the
		// lying-digest record.
		inj.Arm(faultinject.PointStoreTornWrite, 0.3*float64(seed%2))
		inj.Arm(faultinject.PointStoreTruncate, 0.3*float64((seed/2)%2))
		inj.Arm(faultinject.PointStoreBitFlip, 0.3*float64((seed/4)%2))
		inj.Arm(faultinject.PointStoreStaleAssume, 0.25*float64((seed/3)%2))
		round(seed, inj)
		fired += inj.TotalFired()
	}

	// Convergence: the first clean round re-traces whatever the last
	// chaos round corrupted and rewrites it; the second must then run
	// fully warm.
	round(-1, nil)
	warm, traces := round(-2, nil)
	if traces != 0 || warm != 3 {
		t.Fatalf("no convergence: final clean round ran %d warm / %d traces, want 3/0", warm, traces)
	}
	// Every chaos round keeps two of its predecessor's three records; even
	// with the armed write faults spoiling some, well over one adoption in
	// two rounds must go through, and with the rotating order some of them
	// away from the recorded address.
	if adopted < uint64(rounds)/2 || relocated == 0 {
		t.Fatalf("%d rounds adopted %d records, %d of them moved: the rounds are not reading what earlier rounds wrote",
			rounds, adopted, relocated)
	}
	t.Logf("persist chaos: %d rounds, %d injected store faults, %d adoptions (%d moved), converged",
		rounds, fired, adopted, relocated)
}
