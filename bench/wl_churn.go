package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/isa"
	"repro/internal/specmgr"
	"repro/internal/spstore"
)

// churn-restart: each pass is one restart round — boot a fresh machine,
// open the shared store and a service with far fewer live slots than
// keys, then follow ChurnOps requests to a verified emulated call. Hits,
// store adoptions, fresh traces, LRU evictions and coefficient-write
// deopts interleave; the boot and shutdown are part of the round's wall.

const churnShards = 4

// churnGrid is the stencil grid behind the round's three kernel keys: a
// verified call of a kernel key is one whole sweep, so it is kept tiny.
var churnGrid = [2]int{16, 12}

// coefValues are the values the frozen coefficient alternates between.
var coefValues = [2]float64{-0.5, -1.0}

type churnInst struct {
	seed      int64
	sz        sizing
	dir       string // the store directory all rounds share
	guardVals [][2]uint64
	order     []int // seeded population order: the boot prefix follows it
	round     int
	codeBytes map[string]int // latest specialization size by key
	tw        *churnTwins    // ladder machines, built by the first traced round
}

func setupChurn(seed int64, sz sizing, dir string) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	in := &churnInst{seed: seed, sz: sz, dir: dir, guardVals: guardValues(r, sz.FleetFns), codeBytes: map[string]int{}}
	in.order = r.Perm(2*sz.FleetFns + 3)
	// The cold round: every key once, in population order, into the empty
	// store — the state every later restart finds.
	p := in.runRound(nil, true)
	if p.failed > 0 {
		return nil, fmt.Errorf("churn-restart: cold round: %v", p.fails)
	}
	return in, nil
}

func (in *churnInst) close() {
	if in.tw != nil {
		_ = in.tw.store.Close()
	}
}

func (in *churnInst) pass(rec *recorder) *passStats {
	in.round++
	return in.runRound(rec, false)
}

// round is one booted machine + store + service.
type round struct {
	f   *fleet
	st  *spstore.Store
	svc *brewsvc.Service
}

func (in *churnInst) boot(rec *recorder) (*round, error) {
	sp := rec.begin(0, 0, "vm", "boot: vm.New + minc.CompileAndLink")
	f, err := bootFleet(in.sz.FleetFns, in.guardVals, churnGrid)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(0, 0, "spstore", "Open")
	st, err := spstore.Open(spstore.Options{Dir: in.dir})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(0, 0, "brewsvc", "Open")
	// One cache shard, so "live slots" is one exact LRU bound.
	svc := brewsvc.Open(f.m, brewsvc.WithShards(churnShards), brewsvc.WithWorkers(1),
		brewsvc.WithCache(1, in.sz.ChurnLive), brewsvc.WithStore(st),
		brewsvc.WithPolicy(specmgr.Policy{MaxLive: in.sz.ChurnLive, MaxVariants: 2, Respecialize: true}))
	rec.end(sp)
	return &round{f, st, svc}, nil
}

func (rd *round) shutdown(rec *recorder) error {
	sp := rec.begin(0, 0, "brewsvc", "Close")
	rd.svc.Close()
	rec.end(sp)
	sp = rec.begin(0, 0, "spstore", "Close")
	defer rec.end(sp)
	return rd.st.Close()
}

// opClass says how the service answered one request, from the outcome and
// the counter deltas around it.
func opClass(out brewsvc.Outcome, before, after brewsvc.Stats) string {
	switch {
	case out.CacheHit:
		return "hit"
	case after.WarmHits > before.WarmHits:
		return "adopt"
	case after.Traces > before.Traces:
		return "miss"
	}
	return "other"
}

func (in *churnInst) runRound(rec *recorder, cold bool) *passStats {
	p := &passStats{det: map[string]float64{}}
	m0 := mallocs()
	t0 := time.Now()
	rd, err := in.boot(rec)
	if err != nil {
		p.fail("boot: %v", err)
		return p
	}
	f := rd.f
	keys := make([]*svcKey, len(f.keys))
	for i, j := range in.order {
		keys[i] = f.keys[j]
	}
	var applyKey *svcKey
	for _, k := range f.keys {
		if k.name == "stencil.apply" {
			applyKey = k
		}
	}
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(in.round)))
	nops := in.sz.ChurnOps
	if cold {
		nops = len(keys)
	}

	seen := map[*specmgr.Variant]bool{}
	frozenLast := map[string]brewsvc.Outcome{} // latest outcome of each frozen key
	deopts, pokes := 0, 0                      // deopts: variants a coefficient write killed
	classes := map[string]int{}
	var untimed time.Duration // ladder replays and the round-end check

	for i := 0; i < nops; i++ {
		var k *svcKey
		poke := !cold && (i+1)%in.sz.DeoptEvery == 0
		switch {
		case poke:
			// Make sure the frozen kernel is live, rewrite its coefficient
			// (untimed: the application's own store), then request it
			// again as this op — the watchpoint deoptimized it, so the
			// service must respecialize against the new contents.
			k = applyKey
			frozenLast[k.name] = rd.svc.Do(k.request())
			var live []*specmgr.Variant
			for _, out := range frozenLast {
				if out.Variant != nil && out.Variant.Live() {
					live = append(live, out.Variant)
				}
			}
			if err := f.writeCoef(coefValues[pokes%2], &p.emu); err != nil {
				p.fail("op %d: coefficient write: %v", i, err)
			}
			pokes++
			for _, v := range live {
				if !v.Live() {
					deopts++
				}
			}
		case cold || i < in.sz.ChurnLive:
			k = keys[i%len(keys)]
		default:
			k = keys[rng.Intn(len(keys))]
		}
		req := i + 1
		root := rec.begin(0, req, opLayer, "request")
		before := rd.svc.Stats()
		sp := rec.begin(root, req, "brewsvc", "Do")
		s0 := time.Now()
		out := rd.svc.Do(k.request())
		doNS := time.Since(s0)
		rec.end(sp)
		after := rd.svc.Stats()
		class := opClass(out, before, after)
		classes[class]++
		call := rec.begin(root, req, "vm", "Call "+class)
		var one emuMeter
		cerr := f.call(k, out.Addr, &one)
		rec.end(call)
		rec.end(root)
		p.lat = append(p.lat, int64(doNS)+one.ns)
		p.emu.add(one)
		p.timed.add(one)
		p.ops++
		switch {
		case out.Degraded:
			p.fail("op %d %s: degraded: %s (%v)", i, k.name, out.Reason, out.Err)
		case cerr != nil:
			p.fail("op %d (%s): %v", i, class, cerr)
		case poke && class == "hit":
			p.fail("op %d %s: served from cache after its frozen coefficient was written", i, k.name)
		}
		if rec != nil && req <= in.sz.LadderK && class != "hit" {
			tReplay := time.Now()
			rec.ladder(sp, in.churnRungs(k, f.coef0))
			untimed += time.Since(tReplay)
		}
		if out.Variant != nil {
			seen[out.Variant] = true
		}
		if k.frozen {
			frozenLast[k.name] = out
		}
	}
	svcStats, stStats := rd.svc.Stats(), rd.st.Stats()

	evicted := 0
	for v := range seen {
		if !v.Live() {
			evicted++
		}
	}

	// Round-end check (untimed): every key of the population is requested
	// once more and its address called beside the original for the cycle
	// ratio — the whole population, so the ratio does not depend on which
	// keys the draws left live.
	var ratios []float64
	var checkEmu emuMeter
	tCheck, mCheck := time.Now(), mallocs()
	p.det["spstore.record_bytes"] = recordBytes(rd.st)
	for _, k := range keys {
		if cold {
			break // setup only fills the store
		}
		out := rd.svc.Do(k.request())
		ratio, err := f.cycleRatio(k, out.Addr, &checkEmu)
		if err != nil {
			p.fail("round check: %v", err)
			continue
		}
		ratios = append(ratios, ratio)
		if out.Variant != nil {
			in.codeBytes[k.name] = out.Variant.Result().CodeSize
		}
	}
	untimed += time.Since(tCheck)
	checkMallocs := mallocs() - mCheck
	p.emu.add(checkEmu)
	if err := rd.shutdown(rec); err != nil {
		p.fail("shutdown: %v", err)
	}
	p.wall = time.Since(t0) - untimed
	p.mallocs = mallocs() - m0 - checkMallocs

	bytes := 0
	for _, n := range in.codeBytes {
		bytes += n
	}
	p.det["spec_cycle_ratio"] = geomean(ratios)
	p.det["spec_code_bytes"] = float64(bytes)
	p.det["ops.hit"] = float64(classes["hit"])
	p.det["ops.adopt"] = float64(classes["adopt"])
	p.det["ops.miss"] = float64(classes["miss"])
	p.det["specmgr.deopts"] = float64(deopts)
	p.det["specmgr.variant_evictions"] = float64(evicted - deopts)
	p.det["brewsvc.hit_ratio"] = float64(svcStats.CacheHits) / float64(svcStats.Submitted)
	p.det["brewsvc.traces"] = float64(svcStats.Traces)
	p.det["brewsvc.coalesce_hits"] = float64(svcStats.CoalesceHits)
	p.det["brewsvc.evictions"] = float64(svcStats.Evictions)
	p.det["brewsvc.degraded"] = float64(svcStats.Degraded)
	p.det["brewsvc.sheds"] = float64(sumSheds(svcStats))
	p.det["spstore.warm_hits"] = float64(stStats.WarmHits)
	p.det["spstore.reval_fails"] = float64(stStats.RevalFails)
	p.det["spstore.quarantined"] = float64(stStats.Quarantined)
	if lookups := stStats.LocalHits + stStats.LocalMisses; lookups > 0 {
		p.det["spstore.adopt_ratio"] = float64(stStats.WarmHits) / float64(lookups)
	}
	p.rows = append(p.rows, fmt.Sprintf("round %d: %d hit, %d adopt, %d fresh trace; %d evictions, %d deopts; cycle ratio geomean %.3f over %d keys",
		in.round, classes["hit"], classes["adopt"], classes["miss"], svcStats.Evictions, deopts, geomean(ratios), len(ratios)))
	if !cold {
		// What makes the round a churn round should be there in every one.
		for _, c := range []struct {
			name string
			n    uint64
		}{{"spstore.warm_hits", stStats.WarmHits}, {"brewsvc.traces", svcStats.Traces},
			{"brewsvc.evictions", svcStats.Evictions}, {"specmgr.deopts", uint64(deopts)}} {
			if c.n == 0 {
				p.notes = append(p.notes, fmt.Sprintf("round %d: %s is 0", in.round, c.name))
			}
		}
	}
	return p
}

// churnTwins are the deterministically built machines a traced round's
// non-hit requests are replayed on, one layer deeper per machine.
type churnTwins struct {
	mgrFleet *fleet // rung 2: specmgr.Manager.Specialize*
	mgr      *specmgr.Manager
	bare     *fleet // rung 3: brew.Do; rung 4: isa on its window
	window   []isa.Instr
	adopter  *fleet // sibling: spstore.Adopt of what bare captured
	store    *spstore.Store
}

func (in *churnInst) twins() (*churnTwins, error) {
	if in.tw != nil {
		return in.tw, nil
	}
	tw := &churnTwins{}
	var err error
	for _, f := range []**fleet{&tw.mgrFleet, &tw.bare, &tw.adopter} {
		if *f, err = bootFleet(in.sz.FleetFns, in.guardVals, churnGrid); err != nil {
			return nil, err
		}
	}
	tw.mgr = specmgr.New(tw.mgrFleet.m, specmgr.Policy{MaxVariants: 2})
	if tw.window, err = guestCode(tw.bare.m); err != nil {
		return nil, err
	}
	if tw.store, err = spstore.Open(spstore.Options{Dir: filepath.Clean(in.dir) + "-ladder"}); err != nil {
		return nil, err
	}
	in.tw = tw
	return tw, nil
}

// churnRungs replays one non-hit request down the ladder: Service.Do (the
// live span) -> Manager.Specialize* -> brew.Do -> isa decode/encode, with
// spstore.CapturePut / Adopt beside specmgr and vm.InstallJIT beside isa.
// coef0 is the live machine's coefficient, mirrored so frozen keys trace
// the same world.
func (in *churnInst) churnRungs(k *svcKey, coef0 float64) []rung {
	tw, err := in.twins()
	if err != nil {
		return nil
	}
	// The twins hold the same population in the same order.
	var ki int
	for i, fk := range tw.bare.keys {
		if fk.name == k.name {
			ki = i
		}
	}
	for _, f := range []*fleet{tw.mgrFleet, tw.bare, tw.adopter} {
		if f.coef0 != coef0 {
			if err := f.writeCoef(coef0, &emuMeter{}); err != nil {
				return nil
			}
		}
	}
	mk, bk, ak := tw.mgrFleet.keys[ki], tw.bare.keys[ki], tw.adopter.keys[ki]

	t0 := time.Now()
	e, err := tw.mgr.SpecializeGuarded(mk.cfg, mk.fn, mk.guards, mk.args, nil)
	specNS := int64(time.Since(t0))
	if err != nil {
		return nil
	}
	tw.mgr.Release(e)

	t0 = time.Now()
	out, err := brew.Do(tw.bare.m, &brew.Request{Config: bk.cfg, Fn: bk.fn, Args: bk.args, Guards: bk.guards})
	doNS := int64(time.Since(t0))
	if err != nil {
		return nil
	}
	below := isaRungs(tw.bare.m, tw.window, out.Result)

	t0 = time.Now()
	_, perr := tw.store.CapturePut(tw.bare.m, bk.cfg, bk.fn, bk.args, nil, bk.guards, out)
	putNS := int64(time.Since(t0))
	freeOutcome(tw.bare.m, out)
	siblings := []rung{{Layer: "spstore", Name: "CapturePut", NS: putNS}}
	if perr == nil {
		t0 = time.Now()
		adopted, _, _ := tw.store.Adopt(tw.adopter.m, ak.cfg, ak.fn, ak.args, nil, ak.guards)
		siblings = append(siblings, rung{Layer: "spstore", Name: "Adopt", NS: int64(time.Since(t0))})
		if adopted != nil {
			_ = tw.adopter.m.FreeJIT(adopted.Result.Addr)
		}
	}
	return append([]rung{
		{Layer: "specmgr", Name: "SpecializeGuarded", NS: specNS, Siblings: siblings},
		{Layer: "brew", Name: "Do", NS: doNS},
	}, below...)
}
