package oracle

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/brew"
	"repro/internal/spstore"
)

// RunPersist is the persist/reload differential mode behind brew-verify
// -persist: it proves a specialization served from the persistent store
// across a simulated restart is exactly the specialization a fresh
// rewrite would have produced.
//
// Three identically built instances participate:
//
//   - the original machine (the differential baseline, as in Run);
//   - a "first boot" machine that rewrites fresh, then captures and
//     persists the outcome into st;
//   - a "restart" machine that never traces — it must find the record
//     by content address, pass full revalidation, and re-install it.
//
// The adopted body must match the fresh rewrite byte-for-byte at the
// same JIT address (any mismatch is a reported Divergence, kind
// "persist-addr"/"persist-bytes"), and then the adopted code runs the
// standard differential trial loop against the original machine — so
// "cached" is proven both bit- and behavior-identical to "fresh".
//
// Degrade, Inject and VariantGuards cases are out of scope (the store
// only ever persists clean, unconditional or guarded single rewrites
// through the service; the fault-path equivalences have their own
// modes) and return an error.
func RunPersist(c Case, seed int64, st *spstore.Store) (*CaseResult, error) {
	if c.Degrade || c.Inject != nil || len(c.VariantGuards) > 0 {
		return nil, fmt.Errorf("oracle %s: persist mode is incompatible with Degrade/Inject/VariantGuards", c.Name)
	}
	res := &CaseResult{Name: c.Name + "+persist"}

	orig, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
	}
	fresh, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
	}
	fresh.Cfg.Effort = c.Effort
	out, rerr := brew.Do(fresh.M, &brew.Request{
		Config: fresh.Cfg, Fn: fresh.Fn, Args: fresh.Args, FArgs: fresh.FArgs,
	})
	if rerr != nil {
		res.RewriteErr = rerr // rewriter refusal: a skip, as in Run
		return res, nil
	}
	rec, err := st.CapturePut(fresh.M, fresh.Cfg, fresh.Fn, fresh.Args, fresh.FArgs, nil, out)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: persist: %w", c.Name, err)
	}

	// Simulated restart: an identically built machine adopts from the
	// store. Build determinism (the Instance contract) makes the content
	// address and the JIT allocation sequence reproduce exactly, so a
	// miss or a revalidation failure here is a real defect, not noise.
	restart, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
	}
	restart.Cfg.Effort = c.Effort
	aout, arec, aerr := st.Adopt(restart.M, restart.Cfg, restart.Fn, restart.Args, restart.FArgs, nil)
	if aerr != nil {
		return nil, fmt.Errorf("oracle %s: warm adoption failed: %w", c.Name, aerr)
	}
	if aout == nil {
		return nil, fmt.Errorf("oracle %s: warm lookup missed the just-persisted record %s", c.Name, rec.Key)
	}
	if arec.Key != rec.Key {
		return nil, fmt.Errorf("oracle %s: adopted record %s, persisted %s", c.Name, arec.Key, rec.Key)
	}

	// Byte-for-byte: the adopted body at the adopted address must equal
	// the fresh rewrite at the fresh address.
	if aout.Result.Addr != out.Result.Addr || aout.Result.CodeSize != out.Result.CodeSize {
		res.Divergence = &Divergence{
			Case: res.Name, Kind: "persist-addr",
			Detail: fmt.Sprintf("fresh body %d bytes at %#x, adopted body %d bytes at %#x",
				out.Result.CodeSize, out.Result.Addr, aout.Result.CodeSize, aout.Result.Addr),
		}
		return res, nil
	}
	freshCode, err := fresh.M.Mem.ReadBytes(out.Result.Addr, out.Result.CodeSize)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: read fresh body: %w", c.Name, err)
	}
	warmCode, err := restart.M.Mem.ReadBytes(aout.Result.Addr, aout.Result.CodeSize)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: read adopted body: %w", c.Name, err)
	}
	if !bytes.Equal(freshCode, warmCode) {
		d := 0
		for d < len(freshCode) && freshCode[d] == warmCode[d] {
			d++
		}
		res.Divergence = &Divergence{
			Case: res.Name, Kind: "persist-bytes",
			Detail: fmt.Sprintf("adopted body differs from fresh rewrite at byte %d of %d (addr %#x)",
				d, len(freshCode), out.Result.Addr+uint64(d)),
			RewrListing: out.Result.Listing(),
		}
		return res, nil
	}

	// Behavior: the standard differential trial loop, original machine
	// vs the restart machine running the adopted body.
	h := &harness{
		c:        c,
		orig:     &machState{inst: orig, snap: snapshot(orig.M)},
		rewr:     &machState{inst: restart, snap: snapshot(restart.M)},
		rewrAddr: aout.Result.Addr,
		result:   out.Result,
	}
	h.stepLimit = c.StepLimit
	if h.stepLimit <= 0 {
		h.stepLimit = 8 << 20
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 6
	}
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		args, fargs := c.NewArgs(r)
		d, err := h.diff(args, fargs)
		if err != nil {
			return nil, err
		}
		res.Trials++
		if d != nil {
			h.minimize(d)
			h.decorate(d)
			res.Divergence = d
			return res, nil
		}
	}
	return res, nil
}
