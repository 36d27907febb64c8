package brewsvc_test

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/stencil"
)

// warmKeys opens a one-worker service over a fresh stencil machine and
// specializes two keys into its cache: the E1c apply configuration
// (unguarded) and a guarded apply request, the shape of the serve-warm
// fleet's guarded keys. The caller closes the service.
func warmKeys(t *testing.T) (svc *brewsvc.Service, plain, guarded *brewsvc.Request) {
	t.Helper()
	m, w := newStencil(t)
	svc = brewsvc.Open(m, brewsvc.WithWorkers(1))
	cfg, args := w.ApplyConfig()
	plain = &brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}
	guarded = &brewsvc.Request{
		Config: brew.NewConfig().SetParamPtrToKnown(3, stencil.StructSSize),
		Fn:     w.Apply, Args: []uint64{0, 0, w.S5},
		Guards: []brew.ParamGuard{{Param: 2, Value: gridXS}},
	}
	for _, req := range []*brewsvc.Request{plain, guarded} {
		if out := svc.Do(req); out.Degraded {
			svc.Close()
			t.Fatalf("seed trace degraded: %s (%v)", out.Reason, out.Err)
		}
		if out := svc.Do(req); !out.CacheHit {
			svc.Close()
			t.Fatal("second request missed the cache")
		}
	}
	return svc, plain, guarded
}

// TestWarmHitAllocs holds the warm serve path to its allocation budget: a
// Do cache hit allocates nothing (keys hashed on the stack, the outcome
// returned by value), a Submit hit allocates only its ticket, and
// fingerprinting an ordinary configuration allocates nothing: not
// again, not the first time (its memo has a slot in the Config), and not
// on a Clone of a fingerprinted configuration (the service's flight
// copies), which inherits the remembered value.
func TestWarmHitAllocs(t *testing.T) {
	svc, plain, guarded := warmKeys(t)
	defer svc.Close()

	// AllocsPerRun calls its function once more than the run count; each
	// call fingerprints a configuration nobody has fingerprinted yet.
	const runs = 200
	clones := make([]*brew.Config, runs+1)
	fresh := make([]*brew.Config, runs+1)
	for i := range clones {
		clones[i] = plain.Config.Clone()
		fresh[i] = brew.NewConfig().SetParamPtrToKnown(3, stencil.StructSSize)
	}

	misses := 0
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Do hit, unguarded", 0, func() {
			if !svc.Do(plain).CacheHit {
				misses++
			}
		}},
		{"Do hit, guarded", 0, func() {
			if !svc.Do(guarded).CacheHit {
				misses++
			}
		}},
		{"Submit hit", 1, func() {
			if _, ok := svc.Submit(guarded).TryOutcome(); !ok {
				misses++
			}
		}},
		{"Fingerprint, stencil config", 0, func() { _ = plain.Config.Fingerprint() }},
		{"Fingerprint, first call on a clone", 0, func() {
			_ = clones[0].Fingerprint()
			clones = clones[1:]
		}},
		{"Fingerprint, first call on a new config", 0, func() {
			_ = fresh[0].Fingerprint()
			fresh = fresh[1:]
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(runs, c.f); got > c.max {
			t.Errorf("%s: %.2f allocations, want <= %g", c.name, got, c.max)
		}
	}
	if misses != 0 {
		t.Fatalf("%d warm requests were not served from the cache", misses)
	}
}
