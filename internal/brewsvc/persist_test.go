package brewsvc_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/brewsvc"
	"repro/internal/spstore"
)

func openStoreDir(t *testing.T, dir string, opts spstore.Options) *spstore.Store {
	t.Helper()
	opts.Dir = dir
	st, err := spstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestWarmStartAcrossRestart is the warm-start acceptance test at the
// service level: a first "boot" traces and persists; an identically
// built second boot sharing the store directory serves the same request
// without tracing at all — same address, correct checksum, WarmHits
// counted instead of Traces — and the persist stats surface in Inspect.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const iters = 3

	boot := func(warmExpected bool) (addr uint64, sum float64) {
		m, w := newStencil(t)
		st := openStoreDir(t, dir, spstore.Options{})
		svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st))
		defer svc.Close()
		cfg, args := w.ApplyConfig()
		out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		if out.Degraded {
			t.Fatalf("degraded: %s (%v)", out.Reason, out.Err)
		}
		stats := svc.Stats()
		if warmExpected {
			if stats.Traces != 0 || stats.WarmHits != 1 {
				t.Fatalf("warm boot stats = %+v, want 0 traces / 1 warm hit", stats)
			}
			insp := svc.Inspect()
			if insp.Persist == nil || insp.Persist.WarmHits != 1 {
				t.Fatalf("Inspect().Persist = %+v, want 1 warm hit", insp.Persist)
			}
		} else if stats.Traces != 1 || stats.WarmHits != 0 {
			t.Fatalf("cold boot stats = %+v, want 1 trace / 0 warm hits", stats)
		}
		if err := w.ResetMatrices(); err != nil {
			t.Fatal(err)
		}
		v, err := w.RunSweeps(out.Addr, false, iters)
		if err != nil {
			t.Fatal(err)
		}
		if want := w.Golden(iters); math.Abs(v-want) > 1e-9 {
			t.Fatalf("checksum %g, want %g", v, want)
		}
		return out.Addr, v
	}

	coldAddr, coldSum := boot(false)
	warmAddr, warmSum := boot(true)
	if warmAddr != coldAddr || warmSum != coldSum {
		t.Fatalf("warm boot served %#x/%g, cold boot %#x/%g", warmAddr, warmSum, coldAddr, coldSum)
	}
}

// TestWarmStartInAnotherOrder: a restart is not a replay. The second boot
// asks for the same three kernels in the opposite order, so its JIT
// allocator offers none of them the address it was captured at — and it
// still traces nothing: every record is adopted where there is room, runs
// to the golden checksum, and Inspect reports the moves and no refusal.
func TestWarmStartInAnotherOrder(t *testing.T) {
	dir := t.TempDir()
	const iters = 3

	boot := func(reverse bool) (addrs [3]uint64, svcStats brewsvc.Stats, text string, moved uint64) {
		m, w := newStencil(t)
		st := openStoreDir(t, dir, spstore.Options{})
		svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st))
		defer svc.Close()
		applyCfg, applyArgs := w.ApplyConfig()
		groupCfg, groupArgs := w.GroupedConfig()
		sweepCfg, sweepArgs := w.SweepConfig()
		kernels := [3]struct {
			req *brewsvc.Request
			run func(addr uint64) (float64, error)
		}{
			{&brewsvc.Request{Config: applyCfg, Fn: w.Apply, Args: applyArgs},
				func(a uint64) (float64, error) { return w.RunSweeps(a, false, iters) }},
			{&brewsvc.Request{Config: groupCfg, Fn: w.ApplyGrouped, Args: groupArgs},
				func(a uint64) (float64, error) { return w.RunSweeps(a, true, iters) }},
			{&brewsvc.Request{Config: sweepCfg, Fn: w.Sweep, Args: sweepArgs},
				func(a uint64) (float64, error) { return w.RunRewrittenSweeps(a, iters) }},
		}
		for n := range kernels {
			i := n
			if reverse {
				i = len(kernels) - 1 - n
			}
			out := svc.Do(kernels[i].req)
			if out.Degraded {
				t.Fatalf("kernel %d degraded: %s (%v)", i, out.Reason, out.Err)
			}
			addrs[i] = out.Addr
			if err := w.ResetMatrices(); err != nil {
				t.Fatal(err)
			}
			v, err := kernels[i].run(out.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if want := w.Golden(iters); math.Abs(v-want) > 1e-9 {
				t.Fatalf("kernel %d checksum %g, want %g", i, v, want)
			}
		}
		insp := svc.Inspect()
		return addrs, svc.Stats(), insp.Render(), insp.Persist.Relocated
	}

	cold, coldStats, _, _ := boot(false)
	if coldStats.Traces != 3 || coldStats.WarmHits != 0 {
		t.Fatalf("cold boot stats = %+v, want 3 traces", coldStats)
	}
	warm, warmStats, text, moved := boot(true)
	if warmStats.Traces != 0 || warmStats.WarmHits != 3 {
		t.Fatalf("reordered boot stats = %+v, want 0 traces / 3 warm hits", warmStats)
	}
	if warm == cold || moved == 0 {
		t.Fatalf("reordered boot served %#x (cold %#x), %d moved: nothing landed elsewhere", warm, cold, moved)
	}
	if want := fmt.Sprintf("warm_hits=3 relocated=%d reval_fails=0 quarantined=0", moved); !strings.Contains(text, want) {
		t.Fatalf("Inspect text lacks %q:\n%s", want, text)
	}
}

// TestWarmHitNotCached: a warm adoption still populates the in-memory
// cache, so subsequent same-process requests are cache hits, not repeat
// store lookups.
func TestWarmAdoptionPopulatesCache(t *testing.T) {
	dir := t.TempDir()
	{
		m, w := newStencil(t)
		st := openStoreDir(t, dir, spstore.Options{})
		svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st))
		cfg, args := w.ApplyConfig()
		svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args})
		svc.Close()
	}
	m, w := newStencil(t)
	st := openStoreDir(t, dir, spstore.Options{})
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st))
	defer svc.Close()
	for i := 0; i < 3; i++ {
		cfg, args := w.ApplyConfig()
		if out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}); out.Degraded {
			t.Fatalf("request %d degraded", i)
		}
	}
	stats := svc.Stats()
	if stats.WarmHits != 1 || stats.CacheHits != 2 || stats.Traces != 0 {
		t.Fatalf("stats = %+v, want 1 warm hit + 2 cache hits + 0 traces", stats)
	}
	if sst := st.Stats(); sst.LocalHits != 1 {
		t.Fatalf("store stats = %+v, want exactly 1 local hit", sst)
	}
}

// TestCloseRacingRemoteBackoff is the regression test for the Close /
// write-behind race: with the remote tier wedged (every put erroring
// into a long retry schedule), Service.Close must drain within its
// bounded deadline and return promptly — and shutting the store down
// afterwards must leave no goroutine behind.
func TestCloseRacingRemoteBackoff(t *testing.T) {
	before := runtime.NumGoroutine()

	r := spstore.NewMemRemote()
	remoteDown := errors.New("remote down")
	r.FailPut = func(string) error { return remoteDown }
	m, w := newStencil(t)
	st := openStoreDir(t, t.TempDir(), spstore.Options{
		Remote:           r,
		RemoteRetries:    1000,
		RemoteTimeout:    10 * time.Millisecond,
		BreakerThreshold: 1 << 30,
	})
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithStore(st),
		brewsvc.WithPersistDrainTimeout(50*time.Millisecond))
	cfg, args := w.ApplyConfig()
	if out := svc.Do(&brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}); out.Degraded {
		t.Fatalf("degraded: %s", out.Reason)
	}

	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Service.Close hung on a remote put stuck in backoff")
	}
	st.Close()

	// The write-behind worker and any timed-out call goroutines must wind
	// down; poll briefly rather than demanding an instant exact count.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across Close: %d before, %d after", before, n)
	}
}
