package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/minc"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/specmgr"
	"repro/internal/spstore"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// The per-layer probes: each times one layer's exported calls on fixed
// inputs, from outside. They run in the traced run only and are the same
// whichever workload ran, so a layer's row means one thing everywhere.

// probeSeed fixes the probes' guard values; they do not vary with -seed.
const probeSeed = 1

// timeN calls f n times and returns each call's duration in ns.
func timeN(n int, f func(i int) error) ([]int64, error) {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, int64(time.Since(t0)))
	}
	return out, nil
}

// probes holds the rows collected so far.
type probes struct {
	sz   sizing
	dir  string
	rows map[string]float64
}

func (p *probes) set(name string, v float64) { p.rows[name] = v }

func newProbeFleet(sz sizing) (*fleet, error) {
	return bootFleet(sz.FleetFns, guardValues(rand.New(rand.NewSource(probeSeed)), sz.FleetFns), sz.Small)
}

// runProbes measures every probe-derived row of the ledger.
func runProbes(sz sizing, dir string) (map[string]float64, error) {
	p := &probes{sz: sz, dir: dir, rows: map[string]float64{}}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"isa", p.isa}, {"mem+cache", p.memCache}, {"vm", p.vm}, {"minc", p.minc}, {"brew", p.brew},
		{"specmgr", p.specmgr}, {"brewsvc", p.brewsvc}, {"spstore", p.spstore},
	} {
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", step.name, err)
		}
	}
	return p.rows, nil
}

// isa: decode every guest code window, re-encode it, and require the
// bytes to round-trip.
func (p *probes) isa() error {
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	window, err := guestCode(f.m)
	if err != nil {
		return err
	}
	first, last := window[0], window[len(window)-1]
	raw, err := f.m.Mem.ReadBytes(first.Addr, int(last.Addr-first.Addr)+last.Len)
	if err != nil {
		return err
	}
	dec, err := timeN(p.sz.ProbeReps, func(int) error {
		for _, in := range window {
			if _, err := isa.Decode(raw[in.Addr-first.Addr:], in.Addr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf []byte
	enc, err := timeN(p.sz.ProbeReps, func(int) error {
		buf = buf[:0]
		for _, in := range window {
			if buf, err = isa.AppendEncode(buf, in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	off := 0
	for _, in := range window {
		if !bytes.Equal(buf[off:off+in.Len], raw[in.Addr-first.Addr:][:in.Len]) {
			return fmt.Errorf("instruction at %#x does not round-trip through AppendEncode", in.Addr)
		}
		off += in.Len
	}
	n := float64(len(window))
	p.set("isa.decode_ns_per_instr", p50(dec)/n)
	p.set("isa.encode_ns_per_instr", p50(enc)/n)
	p.set("isa.decoded_instrs", n)
	return nil
}

// memCache: Read64/Write64 over the small grid, and cache.Hierarchy.Access
// replaying the address stream of one specialized sweep per grid size.
func (p *probes) memCache() error {
	type access struct {
		addr uint64
		size int
	}
	var accessNS []float64
	for _, g := range []struct {
		label string
		dims  [2]int
	}{{"small", p.sz.Small}, {"large", p.sz.Large}} {
		w, err := stencil.New(vm.MustNew(), g.dims[0], g.dims[1])
		if err != nil {
			return err
		}
		if g.label == "small" {
			words := g.dims[0] * g.dims[1]
			rw, err := timeN(p.sz.ProbeReps, func(int) error {
				for i := 0; i < words; i++ {
					a := w.M1 + uint64(8*i)
					v, err := w.M.Mem.Read64(a)
					if err != nil {
						return err
					}
					if err := w.M.Mem.Write64(a, v); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.set("mem.rw_ns_per_word", p50(rw)/float64(2*words))
		}
		res, err := w.RewriteApply()
		if err != nil {
			return err
		}
		var stream []access
		w.M.OnLoad = func(a uint64, s int) { stream = append(stream, access{a, s}) }
		w.M.OnStore = w.M.OnLoad
		_, err = w.RunSweeps(res.Addr, false, 1)
		w.M.OnLoad, w.M.OnStore = nil, nil
		if err != nil {
			return err
		}
		h := cache.Default()
		reps := p.sz.ProbeReps/20 + 2
		ns, err := timeN(reps, func(int) error {
			for _, a := range stream {
				h.Access(a.addr, a.size)
			}
			return nil
		})
		if err != nil {
			return err
		}
		accessNS = append(accessNS, p50(ns)/float64(len(stream)))
		// Hit rates of the first, cold replay plus the warm ones: the
		// stream and the replay count are fixed, so they repeat exactly.
		for _, lv := range h.Stats() {
			p.set(fmt.Sprintf("cache.%s_hit_rate_%s", strings.ToLower(lv.Name), g.label), lv.HitRate())
		}
	}
	p.set("cache.access_ns", median(accessNS))
	return nil
}

// vm: emulation speed with and without the cache model, JIT install and
// free, the re-decode penalty of the first call after an install, vm.New.
func (p *probes) vm() error {
	w, err := stencil.New(vm.MustNew(), p.sz.Small[0], p.sz.Small[1])
	if err != nil {
		return err
	}
	res, err := w.RewriteApply()
	if err != nil {
		return err
	}
	reps := p.sz.ProbeReps/10 + 2
	perInstr := func() (float64, error) {
		var e emuMeter
		var per []float64
		for i := 0; i < reps; i++ {
			e = emuMeter{}
			if err := e.run(w.M, func() error { _, err := w.RunSweeps(res.Addr, false, 1); return err }); err != nil {
				return 0, err
			}
			per = append(per, float64(e.ns)/float64(e.instr))
		}
		return median(per), nil
	}
	v, err := perInstr()
	if err != nil {
		return err
	}
	p.set("vm.ns_per_instr", v)
	saved := w.M.Cache
	w.M.Cache = nil
	v, err = perInstr()
	w.M.Cache = saved
	if err != nil {
		return err
	}
	p.set("vm.ns_per_instr_nocache", v)

	body, err := w.M.Mem.ReadBytes(res.Addr, res.CodeSize)
	if err != nil {
		return err
	}
	body = append([]byte(nil), body...)
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	k := f.keys[0]
	var install, free, penalty []int64
	for i := 0; i < p.sz.ProbeReps; i++ {
		if _, err := k.run(k.fn); err != nil { // decode cache warm
			return err
		}
		t0 := time.Now()
		addr, err := f.m.InstallJIT(len(body), func(uint64) ([]byte, error) { return body, nil })
		install = append(install, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		var firstCall, second emuMeter
		if err := firstCall.run(f.m, func() error { _, err := k.run(k.fn); return err }); err != nil {
			return err
		}
		if err := second.run(f.m, func() error { _, err := k.run(k.fn); return err }); err != nil {
			return err
		}
		penalty = append(penalty, firstCall.ns-second.ns)
		t0 = time.Now()
		err = f.m.FreeJIT(addr)
		free = append(free, int64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	p.set("vm.install_jit_us", p50(install)/1e3)
	p.set("vm.free_jit_us", p50(free)/1e3)
	p.set("vm.first_call_penalty_us", p50(penalty)/1e3)

	news, err := timeN(p.sz.ProbeReps/25+2, func(int) error { _, err := vm.New(); return err })
	if err != nil {
		return err
	}
	p.set("vm.new_ms", p50(news)/1e6)
	return nil
}

// minc: compile and link every guest source the benchmark uses.
func (p *probes) minc() error {
	srcs := []string{stencil.Source, pgas.Source, x2Src, fleetSrc(p.sz.FleetFns)}
	code := 0
	// One machine takes every repetition: each link is its own unit.
	m, err := vm.New()
	if err != nil {
		return err
	}
	ns, err := timeN(p.sz.ProbeReps/25+2, func(int) error {
		code = 0
		for _, src := range srcs {
			l, err := minc.CompileAndLink(m, src, nil)
			if err != nil {
				return err
			}
			for _, n := range l.Sizes {
				code += n
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("minc.compile_ms", p50(ns)/1e6)
	p.set("minc.code_bytes", float64(code))
	return nil
}

// freeOutcome releases everything a bare brew.Do installed.
func freeOutcome(m *vm.Machine, out *brew.Outcome) {
	_ = m.FreeJIT(out.Result.Addr)
	if out.Guarded != nil && out.Guarded.Addr != 0 {
		_ = m.FreeJIT(out.Guarded.Addr)
	}
}

// brew: brew.Do on the three stencil kernels at both efforts, and one
// guarded fleet function.
func (p *probes) brew() error {
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	var kernels []*svcKey
	for _, k := range f.keys {
		if len(k.guards) == 0 {
			kernels = append(kernels, k)
		}
	}
	var traced, allocs, allocBytes, totalNS float64
	do := func(k *svcKey, e brew.Effort) ([]int64, error) {
		cfg := k.cfg.Clone()
		cfg.Effort = e
		req := &brew.Request{Config: cfg, Fn: k.fn, Args: k.args, Guards: k.guards}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ns, err := timeN(p.sz.ProbeReps, func(int) error {
			t0 := time.Now()
			out, err := brew.Do(f.m, req)
			totalNS += float64(time.Since(t0))
			if err != nil {
				return err
			}
			traced += float64(out.Result.TracedInstrs)
			freeOutcome(f.m, out)
			return nil
		})
		runtime.ReadMemStats(&ms1)
		allocs += float64(ms1.Mallocs - ms0.Mallocs)
		allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		return ns, err
	}
	var full, quick []int64
	for _, k := range kernels {
		ns, err := do(k, brew.EffortFull)
		if err != nil {
			return err
		}
		full = append(full, ns...)
		if ns, err = do(k, brew.EffortQuick); err != nil {
			return err
		}
		quick = append(quick, ns...)
	}
	n := float64(len(full) + len(quick))
	sorted := sortedNS(full)
	tailNS, _ := tail(sorted)
	p.set("brew.do_full_p50_us", quantile(sorted, 0.5)/1e3)
	p.set("brew.do_full_tail_us", tailNS/1e3)
	p.set("brew.do_quick_p50_us", p50(quick)/1e3)
	p.set("brew.ns_per_traced_instr", totalNS/traced)
	p.set("brew.allocs_per_do", allocs/n)
	p.set("brew.alloc_kb_per_do", allocBytes/n/1024)
	guarded, err := do(f.keys[0], brew.EffortFull)
	if err != nil {
		return err
	}
	p.set("brew.guarded_do_p50_us", p50(guarded)/1e3)
	return nil
}

// specmgr: Manager.Specialize and InstallVariant on a twin machine, the
// deopt a frozen write causes, and the dispatch cost of a managed call.
func (p *probes) specmgr() error {
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	mgr := specmgr.New(f.m, specmgr.Policy{MaxVariants: 2})
	var apply *svcKey
	for _, k := range f.keys {
		if k.name == "stencil.apply" {
			apply = k
		}
	}
	var deopt []int64
	spec, err := timeN(p.sz.ProbeReps, func(i int) error {
		e, err := mgr.Specialize(apply.cfg, apply.fn, apply.args, nil)
		if err != nil {
			return err
		}
		// Frozen write -> Entry.Deopted, timed from outside the store.
		t0 := time.Now()
		if err := f.writeCoef(coefValues[i%2], &emuMeter{}); err != nil {
			return err
		}
		d, _ := e.Deopted()
		deopt = append(deopt, int64(time.Since(t0)))
		if !d {
			return fmt.Errorf("entry not deoptimized by a write into its frozen descriptor")
		}
		mgr.Release(e)
		return nil
	})
	if err != nil {
		return err
	}
	// The timed call above includes the deopt; take it back out per rep.
	for i := range spec {
		spec[i] -= deopt[i]
	}
	p.set("specmgr.specialize_p50_us", p50(spec)/1e3)
	p.set("specmgr.deopt_us", p50(deopt)/1e3)

	k := f.keys[0]
	e, err := mgr.SpecializeGuarded(k.cfg, k.fn, k.guards, k.args, nil)
	if err != nil {
		return err
	}
	var install []int64
	for i := 0; i < p.sz.ProbeReps; i++ {
		out, derr := brew.Do(f.m, &brew.Request{Config: k.cfg, Fn: k.fn, Args: k.args, Guards: k.guards, Mode: brew.ModeDegrade})
		t0 := time.Now()
		_, ok := mgr.InstallVariant(e, k.cfg, k.guards, k.args, nil, out, derr)
		install = append(install, int64(time.Since(t0)))
		if !ok {
			return fmt.Errorf("InstallVariant refused: %v", derr)
		}
	}
	p.set("specmgr.install_variant_p50_us", p50(install)/1e3)

	// Dispatch: a managed call through the stub and inline-cache chain
	// against a direct call of the variant's body.
	val := k.guards[0].Value
	var managed, direct emuMeter
	if err := managed.run(f.m, func() error { _, err := e.Call(fleetX, val); return err }); err != nil {
		return err
	}
	body := e.VariantFor([]uint64{fleetX, val})
	if body == nil {
		return fmt.Errorf("no variant serves the guarded value")
	}
	if err := direct.run(f.m, func() error { _, err := f.m.Call(body.Result().Addr, fleetX, val); return err }); err != nil {
		return err
	}
	p.set("specmgr.dispatch_cycles", float64(managed.cycles)-float64(direct.cycles))
	mgr.Release(e)
	return nil
}

// freshKey is a fleet function guarded on a value no population key uses;
// every i gives another key. (bootFleet lists the guarded keys first.)
func freshKey(f *fleet, i int) *svcKey {
	k := *f.keys[i%(len(f.keys)-3)]
	k.guards = []brew.ParamGuard{{Param: 2, Value: uint64(2_000_000 + i)}}
	return &k
}

// brewsvc: Service.Do by class (hit, fresh miss, store adoption), a
// SubmitBatch of hits, Open+Close, and the obs gate's cost on a hit.
func (p *probes) brewsvc() error {
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	cacheOpt := brewsvc.WithCache(8, len(f.keys)+p.sz.ProbeReps)
	svc := brewsvc.Open(f.m, brewsvc.WithWorkers(1), cacheOpt)
	defer svc.Close()
	reqs := make([]*brewsvc.Request, len(f.keys))
	for i, k := range f.keys {
		reqs[i] = k.request()
		if out := svc.Do(reqs[i]); out.Degraded {
			return fmt.Errorf("%s degraded: %v", k.name, out.Err)
		}
	}
	hitPass := func() ([]int64, error) {
		return timeN(100*p.sz.ProbeReps, func(i int) error {
			if out := svc.Do(reqs[i%len(reqs)]); !out.CacheHit {
				return fmt.Errorf("warm request missed the cache")
			}
			return nil
		})
	}
	hits, err := hitPass()
	if err != nil {
		return err
	}
	sorted := sortedNS(hits)
	tailNS, _ := tail(sorted)
	p.set("brewsvc.submit_hit_p50_ns", quantile(sorted, 0.5))
	p.set("brewsvc.submit_hit_tail_ns", tailNS)

	obs.Enable()
	observed, err := hitPass()
	obs.Disable()
	obs.Reset()
	if err != nil {
		return err
	}
	p.set("obs.enabled_submit_overhead_ns", p50(observed)-quantile(sorted, 0.5))

	batch, err := timeN(p.sz.ProbeReps, func(int) error {
		for _, tk := range svc.SubmitBatch(reqs) {
			if out := tk.Outcome(); !out.CacheHit {
				return fmt.Errorf("batched warm request missed the cache")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("brewsvc.batch_ns_per_req", p50(batch)/float64(len(reqs)))

	miss, err := timeN(p.sz.ProbeReps, func(i int) error {
		if out := svc.Do(freshKey(f, i).request()); out.Degraded || out.CacheHit {
			return fmt.Errorf("fresh key: degraded=%v hit=%v", out.Degraded, out.CacheHit)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("brewsvc.submit_miss_p50_us", p50(miss)/1e3)

	// The same miss one layer down, on a twin: what specmgr (and below)
	// costs, so the difference is the service's own share.
	twin, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	mgr := specmgr.New(twin.m, specmgr.Policy{MaxVariants: 2})
	below, err := timeN(p.sz.ProbeReps, func(i int) error {
		k := freshKey(twin, i)
		e, err := mgr.SpecializeGuarded(k.cfg, k.fn, k.guards, k.args, nil)
		if err != nil {
			return err
		}
		mgr.Release(e)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("brewsvc.self_miss_us", (p50(miss)-p50(below))/1e3)

	oc, err := timeN(p.sz.ProbeReps/10+2, func(int) error {
		brewsvc.Open(twin.m, brewsvc.WithShards(churnShards), brewsvc.WithWorkers(1)).Close()
		return nil
	})
	if err != nil {
		return err
	}
	p.set("brewsvc.open_close_ms", p50(oc)/1e6)

	// Adoption: a first boot fills a store, a second identical boot asks
	// for the same keys in the same order and must be served from it.
	dir := filepath.Join(p.dir, "probe-adopt")
	n := min(p.sz.ProbeReps, p.sz.FleetFns)
	var adopt []int64
	for boot := 0; boot < 2; boot++ {
		bf, err := newProbeFleet(p.sz)
		if err != nil {
			return err
		}
		st, err := spstore.Open(spstore.Options{Dir: dir})
		if err != nil {
			return err
		}
		bs := brewsvc.Open(bf.m, brewsvc.WithWorkers(1), cacheOpt, brewsvc.WithStore(st))
		for i := 0; i < n; i++ {
			before := bs.Stats().WarmHits
			t0 := time.Now()
			out := bs.Do(bf.keys[i].request())
			d := int64(time.Since(t0))
			if out.Degraded {
				return fmt.Errorf("adopt boot %d: %s degraded: %v", boot, bf.keys[i].name, out.Err)
			}
			if boot == 1 && bs.Stats().WarmHits > before {
				adopt = append(adopt, d)
			}
		}
		bs.Close()
		if err := st.Close(); err != nil {
			return err
		}
	}
	if len(adopt) == 0 {
		return fmt.Errorf("second boot adopted nothing from the store")
	}
	p.set("brewsvc.submit_adopt_p50_us", p50(adopt)/1e3)
	return nil
}

// spstore: CapturePut, Get, Adopt and Open against a directory inside the
// checkout.
func (p *probes) spstore() error {
	dir := filepath.Join(p.dir, "probe-store")
	st, err := spstore.Open(spstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	f, err := newProbeFleet(p.sz)
	if err != nil {
		return err
	}
	n := min(p.sz.ProbeReps, len(f.keys))
	var put, get, adopt []int64
	for i := 0; i < n; i++ {
		k := f.keys[i]
		out, err := brew.Do(f.m, &brew.Request{Config: k.cfg, Fn: k.fn, Args: k.args, Guards: k.guards})
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = st.CapturePut(f.m, k.cfg, k.fn, k.args, nil, k.guards, out)
		put = append(put, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		freeOutcome(f.m, out)

		key, err := spstore.KeyFor(f.m, k.cfg, k.fn, k.args, nil, k.guards)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, ok := st.Get(key)
		get = append(get, int64(time.Since(t0)))
		if !ok {
			return fmt.Errorf("%s: record just put is not found", k.name)
		}

		// The body was freed, so the allocator offers its address again
		// and adoption passes every revalidation step.
		t0 = time.Now()
		adopted, _, err := st.Adopt(f.m, k.cfg, k.fn, k.args, nil, k.guards)
		adopt = append(adopt, int64(time.Since(t0)))
		if err != nil || adopted == nil {
			return fmt.Errorf("%s: adoption failed: %v", k.name, err)
		}
		_ = f.m.FreeJIT(adopted.Result.Addr)
	}
	var adoptWall int64
	for _, d := range adopt {
		adoptWall += d
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return err
	}
	p.set("spstore.put_p50_us", p50(put)/1e3)
	p.set("spstore.get_p50_us", p50(get)/1e3)
	p.set("spstore.adopt_p50_us", p50(adopt)/1e3)
	p.set("spstore.reval_share", float64(stats.RevalNS)/float64(adoptWall))

	open, err := timeN(p.sz.ProbeReps/10+2, func(int) error {
		s, err := spstore.Open(spstore.Options{Dir: dir})
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	p.set("spstore.open_ms", p50(open)/1e6)
	return nil
}

// recordBytes sums the store's live record sizes.
func recordBytes(st *spstore.Store) float64 {
	infos, err := st.List()
	if err != nil {
		return 0
	}
	var n int64
	for _, in := range infos {
		if !in.Quarantined {
			n += in.Size
		}
	}
	return float64(n)
}

// fillLayers assembles the per-layer ledger of a traced run: counters of
// the first untraced pass, host rows from the probes, and the tracing
// overhead and attribution of the traced passes.
func (r *wlResult) fillLayers(name string, passes, traced []*passStats, rec *recorder, o runOpts) error {
	probeDir, err := os.MkdirTemp(o.outDir, "tmp-probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	rows, err := runProbes(o.sz, probeDir)
	if err != nil {
		return err
	}
	var busy []float64
	for _, p := range passes {
		busy = append(busy, float64(p.timed.ns)/1e9)
	}
	rows["vm.call_busy_s"] = median(busy)
	if len(traced) > 0 {
		rows["bench.trace_overhead_pct"] = 100 * (median(opsPerS(passes))/median(opsPerS(traced)) - 1)
	}
	fmt.Fprintf(o.text, "  traced passes %d, untraced %d\n", len(traced), len(passes))
	if rows["bench.unattributed_pct"], err = rec.write(o.outDir, name, o.seed, o.text); err != nil {
		return err
	}
	r.Layers = map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := rows[d.Name]
		if !ok {
			v = passes[0].det[d.Name] // counters; 0 where the workload never touches the layer
		}
		r.Layers[d.Name] = pointValue(d.Name, v)
	}
	return nil
}
