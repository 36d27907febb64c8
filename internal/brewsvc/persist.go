package brewsvc

// Warm start and persistence (WithStore). The worker
// consults the persistent rewrite store before tracing a cacheable
// flight and persists every successful install; the revalidate-before-
// adopt discipline lives in spstore.Adopt, the watchpoint re-arming in
// specmgr.InstallVariant (a warm outcome flows through the exact same
// install path as a fresh rewrite, so the frozen-range watches are
// re-armed against the live machine like any other install).

import (
	"repro/internal/brew"
)

// warmAdopt tries to serve f from the persistent store. It returns a
// fully revalidated, freshly installed outcome — indistinguishable from
// a brew.Do result — or nil (clean miss, a revalidation failure that
// quarantined the record, or a placement miss that left it; in every case
// the caller traces fresh). The store's counters and flight-recorder
// events account for each path, by step.
func (s *Service) warmAdopt(f *flight) *brew.Outcome {
	out, _, err := s.cfg.store.Adopt(s.m, f.req.Config, f.req.Fn, f.req.Args, f.req.FArgs, f.req.Guards)
	if err != nil || out == nil {
		return nil
	}
	return out
}

// persist captures a successful install into the store: the write is
// synchronous on the worker (which just paid a multi-millisecond trace —
// the serve path is not here). Persistence is an optimization: a failure
// to capture or write is dropped, never surfaced to the caller.
func (s *Service) persist(f *flight, out *brew.Outcome) {
	_, _ = s.cfg.store.CapturePut(s.m, f.req.Config, f.req.Fn, f.req.Args, f.req.FArgs, f.req.Guards, out)
}
