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
// rewrite would have produced — where the first boot put it, and anywhere
// else.
//
// Five identically built instances participate:
//
//   - the original machine (the differential baseline, as in Run);
//   - a "first boot" machine that rewrites fresh, then captures and
//     persists the outcome into st;
//   - a "restart" machine that never traces — it must find the record
//     by content address, pass full revalidation, and re-install it. Its
//     allocator replays the first boot's, so the body must land at the
//     same address with the same bytes ("persist-addr"/"persist-bytes");
//   - a "moved restart" machine with a seed-sized decoy parked in its JIT
//     buffer first, so the adoption cannot land where the record was
//     captured: the store has to move the body;
//   - a reference machine with the same decoy that rewrites fresh. brew
//     encodes its image at the address InstallJIT hands out, so this is an
//     independent answer to what the body reads like there, and the moved
//     adoption must equal it byte for byte ("persist-moved-addr"/
//     "persist-moved-bytes").
//
// The moved body then runs the standard differential trial loop against
// the original machine — so "cached, elsewhere" is proven both bit- and
// behavior-identical to "fresh". An adoption the decoy failed to move is a
// harness error: the mode would be testing replay again.
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

	// build returns an instance with decoy bytes of its JIT buffer taken.
	build := func(decoy int) (*Instance, error) {
		inst, err := c.Build()
		if err != nil {
			return nil, fmt.Errorf("oracle %s: build: %w", c.Name, err)
		}
		inst.Cfg.Effort = c.Effort
		if decoy > 0 {
			if _, err := inst.M.InstallJIT(decoy, func(uint64) ([]byte, error) { return make([]byte, decoy), nil }); err != nil {
				return nil, fmt.Errorf("oracle %s: park %d-byte decoy: %w", c.Name, decoy, err)
			}
		}
		return inst, nil
	}
	rewrite := func(inst *Instance) (*brew.Outcome, error) {
		return brew.Do(inst.M, &brew.Request{Config: inst.Cfg, Fn: inst.Fn, Args: inst.Args, FArgs: inst.FArgs})
	}

	orig, err := build(0)
	if err != nil {
		return nil, err
	}
	fresh, err := build(0)
	if err != nil {
		return nil, err
	}
	out, rerr := rewrite(fresh)
	if rerr != nil {
		res.RewriteErr = rerr // rewriter refusal: a skip, as in Run
		return res, nil
	}
	rec, err := st.CapturePut(fresh.M, fresh.Cfg, fresh.Fn, fresh.Args, fresh.FArgs, nil, out)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: persist: %w", c.Name, err)
	}

	// adopt is the simulated restart. Build determinism (the Instance
	// contract) makes the content address reproduce exactly, so a miss or a
	// revalidation failure here is a real defect, not noise.
	adopt := func(inst *Instance) (*brew.Outcome, error) {
		aout, arec, aerr := st.Adopt(inst.M, inst.Cfg, inst.Fn, inst.Args, inst.FArgs, nil)
		if aerr != nil {
			return nil, fmt.Errorf("oracle %s: warm adoption failed: %w", c.Name, aerr)
		}
		if aout == nil {
			return nil, fmt.Errorf("oracle %s: warm lookup missed the just-persisted record %s", c.Name, rec.Key)
		}
		if arec.Key != rec.Key {
			return nil, fmt.Errorf("oracle %s: adopted record %s, persisted %s", c.Name, arec.Key, rec.Key)
		}
		return aout, nil
	}
	// sameBody compares an adopted body with the fresh rewrite it stands in
	// for: same address, same size, same bytes.
	sameBody := func(kind string, ref *Instance, want *brew.Outcome, warm *Instance, got *brew.Outcome) (*Divergence, error) {
		if got.Result.Addr != want.Result.Addr || got.Result.CodeSize != want.Result.CodeSize {
			return &Divergence{
				Case: res.Name, Kind: kind + "-addr",
				Detail: fmt.Sprintf("fresh body %d bytes at %#x, adopted body %d bytes at %#x",
					want.Result.CodeSize, want.Result.Addr, got.Result.CodeSize, got.Result.Addr),
			}, nil
		}
		freshCode, err := ref.M.Mem.ReadBytes(want.Result.Addr, want.Result.CodeSize)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: read fresh body: %w", c.Name, err)
		}
		warmCode, err := warm.M.Mem.ReadBytes(got.Result.Addr, got.Result.CodeSize)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: read adopted body: %w", c.Name, err)
		}
		if !bytes.Equal(freshCode, warmCode) {
			d := 0
			for d < len(freshCode) && freshCode[d] == warmCode[d] {
				d++
			}
			return &Divergence{
				Case: res.Name, Kind: kind + "-bytes",
				Detail: fmt.Sprintf("adopted body differs from fresh rewrite at byte %d of %d (addr %#x)",
					d, len(freshCode), want.Result.Addr+uint64(d)),
				RewrListing: want.Result.Listing(),
			}, nil
		}
		return nil, nil
	}

	// Replay: the restart's allocator offers the recorded address.
	restart, err := build(0)
	if err != nil {
		return nil, err
	}
	aout, err := adopt(restart)
	if err != nil {
		return nil, err
	}
	if res.Divergence, err = sameBody("persist", fresh, out, restart, aout); err != nil || res.Divergence != nil {
		return res, err
	}

	// Move: a decoy of 16..1024 bytes (the allocator's granule times a
	// seed-picked count) shifts everything installed after it.
	decoy := 16*(1+int(uint64(seed)%64)) - 1
	moved, err := build(decoy)
	if err != nil {
		return nil, err
	}
	mout, err := adopt(moved)
	if err != nil {
		return nil, err
	}
	if mout.Result.Addr == rec.CodeAddr {
		return nil, fmt.Errorf("oracle %s: a %d-byte decoy did not move the adoption off %#x", c.Name, decoy, rec.CodeAddr)
	}
	res.Moved = true
	ref, err := build(decoy)
	if err != nil {
		return nil, err
	}
	rout, rerr := rewrite(ref)
	if rerr != nil {
		return nil, fmt.Errorf("oracle %s: reference rewrite beside the decoy refused: %w", c.Name, rerr)
	}
	if res.Divergence, err = sameBody("persist-moved", ref, rout, moved, mout); err != nil || res.Divergence != nil {
		return res, err
	}

	// Behavior: the standard differential trial loop, original machine
	// vs the moved restart machine running the adopted body.
	h := &harness{
		c:        c,
		orig:     &machState{inst: orig, snap: snapshot(orig.M)},
		rewr:     &machState{inst: moved, snap: snapshot(moved.M)},
		rewrAddr: mout.Result.Addr,
		result:   rout.Result,
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
