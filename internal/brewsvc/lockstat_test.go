package brewsvc_test

import (
	"testing"

	"repro/internal/brewsvc"
	"repro/internal/lockstat"
)

// TestWarmPathZeroLocks is the lock-free serve-path acceptance test: once
// a key is cached, Do, Submit and an all-hit SubmitBatch serve it from the
// immutable cache snapshot without acquiring ANY lock — no service lock
// and no specialization-manager lock (the hit reads the entry's address
// and its variant's liveness through atomics) — for an unguarded key and
// for a guarded one (the serve-warm shape). It needs the counted-mutex
// build — run with
//
//	go test -tags brewsvc_lockstat ./internal/brewsvc/
//
// and is skipped otherwise (the default build's mutex is a plain
// sync.Mutex with no counter).
func TestWarmPathZeroLocks(t *testing.T) {
	if _, ok := lockstat.Acquisitions(); !ok {
		t.Skip("lock accounting disabled; build with -tags brewsvc_lockstat")
	}

	svc, plain, guarded := warmKeys(t)
	defer svc.Close()
	batch := []*brewsvc.Request{plain, guarded, plain, guarded}

	// warmKeys already served each key once from the cache; snapshot the
	// global acquisition counter from here.
	before, _ := lockstat.Acquisitions()

	const rounds = 250
	for i := 0; i < rounds; i++ {
		for _, req := range []*brewsvc.Request{plain, guarded} {
			out := svc.Do(req)
			if out.Degraded || !out.CacheHit {
				t.Fatalf("Do round %d: degraded=%v cache_hit=%v (%v)", i, out.Degraded, out.CacheHit, out.Err)
			}
			out, ok := svc.Submit(req).TryOutcome()
			if !ok || out.Degraded || !out.CacheHit {
				t.Fatalf("Submit round %d: done=%v degraded=%v cache_hit=%v (%v)", i, ok, out.Degraded, out.CacheHit, out.Err)
			}
		}
		for j, tk := range svc.SubmitBatch(batch) {
			out, ok := tk.TryOutcome()
			if !ok || out.Degraded || !out.CacheHit {
				t.Fatalf("SubmitBatch round %d, request %d: done=%v degraded=%v cache_hit=%v (%v)", i, j, ok, out.Degraded, out.CacheHit, out.Err)
			}
		}
	}

	after, _ := lockstat.Acquisitions()
	if after != before {
		t.Fatalf("warm serve path acquired %d locks over %d rounds, want 0", after-before, rounds)
	}
}
