package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/brewsvc"
)

// serve-warm: every key is specialized in setup; the timed ops are
// Service.Do calls that must all be cache hits, from two closed-loop
// clients drawing keys Zipf(1.1).

const (
	serveClients = 2
	serveShards  = 4
	// serveSampleEvery: one op in this many is latency-sampled, which keeps
	// the time.Now pair off most of the ~1 us ops.
	serveSampleEvery = 4
	zipfS            = 1.1
)

type serveInst struct {
	f    *fleet
	svc  *brewsvc.Service
	outs []brewsvc.Outcome // by key, from the cold batch
	ops  int               // per client per pass
	// clients hold their own key stream and requests: nothing but the
	// service is shared between the two goroutines.
	clients [serveClients]struct {
		zipf *rand.Zipf
		reqs []*brewsvc.Request
	}
	codeBytes int
}

func setupServe(seed int64, sz sizing, _ string) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	f, err := bootFleet(sz.FleetFns, guardValues(r, sz.FleetFns), sz.Small)
	if err != nil {
		return nil, err
	}
	// Zipf rank = position in the seeded key order.
	r.Shuffle(len(f.keys), func(i, j int) { f.keys[i], f.keys[j] = f.keys[j], f.keys[i] })
	in := &serveInst{f: f, ops: sz.ServeOps}
	in.svc = brewsvc.Open(f.m, brewsvc.WithShards(serveShards), brewsvc.WithWorkers(1),
		brewsvc.WithQueueCap(2*len(f.keys)), brewsvc.WithCache(8, len(f.keys)))
	cold := make([]*brewsvc.Request, len(f.keys))
	for i, k := range f.keys {
		cold[i] = k.request()
	}
	for i, tk := range in.svc.SubmitBatch(cold) {
		out := tk.Outcome()
		if out.Degraded {
			in.svc.Close()
			return nil, fmt.Errorf("serve-warm: cold %s degraded: %s (%v)", f.keys[i].name, out.Reason, out.Err)
		}
		in.outs = append(in.outs, out)
		if out.Variant != nil {
			in.codeBytes += out.Variant.Result().CodeSize
		}
	}
	for c := range in.clients {
		cl := &in.clients[c]
		rng := rand.New(rand.NewSource(seed*serveClients + int64(c) + 1))
		cl.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(f.keys)-1))
		for _, k := range f.keys {
			cl.reqs = append(cl.reqs, k.request())
		}
	}
	return in, nil
}

func (in *serveInst) close() { in.svc.Close() }

func (in *serveInst) pass(rec *recorder) *passStats {
	p := &passStats{det: map[string]float64{}}
	before := in.svc.Stats()
	type clientOut struct {
		lat   []int64
		fails []string
		bad   int
	}
	var outs [serveClients]clientOut
	var wg sync.WaitGroup
	m0 := mallocs()
	t0 := time.Now()
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, co := &in.clients[c], &outs[c]
			co.lat = make([]int64, 0, in.ops/serveSampleEvery+1)
			for i := 0; i < in.ops; i++ {
				ki := cl.zipf.Uint64()
				req := c*in.ops + i + 1
				root := rec.begin(0, req, opLayer, "serve")
				sp := rec.begin(root, req, "brewsvc", "Do.hit")
				var out brewsvc.Outcome
				if i%serveSampleEvery == 0 {
					s0 := time.Now()
					out = in.svc.Do(cl.reqs[ki])
					co.lat = append(co.lat, int64(time.Since(s0)))
				} else {
					out = in.svc.Do(cl.reqs[ki])
				}
				rec.end(sp)
				rec.end(root)
				if out.Degraded || !out.CacheHit {
					co.bad++
					if len(co.fails) < 3 {
						co.fails = append(co.fails, fmt.Sprintf("%s: degraded=%v cache_hit=%v (%v)", in.f.keys[ki].name, out.Degraded, out.CacheHit, out.Err))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.mallocs = mallocs() - m0
	for _, co := range outs {
		p.lat = append(p.lat, co.lat...)
		p.failed += co.bad
		p.fails = append(p.fails, co.fails...)
	}
	p.ops = serveClients * in.ops
	st := in.svc.Stats()

	// Check phase: every address the service handed out is called against
	// its reference, beside the original for the cycle ratio.
	var ratios []float64
	for i, k := range in.f.keys {
		ratio, err := in.f.cycleRatio(k, in.outs[i].Addr, &p.emu)
		if err != nil {
			p.fail("check %v", err)
			continue
		}
		ratios = append(ratios, ratio)
		if len(k.guards) == 0 {
			p.rows = append(p.rows, fmt.Sprintf("%s: %.3f of its original", k.name, ratio))
		}
	}
	p.rows = append(p.rows, fmt.Sprintf("all %d keys: geomean %.3f", len(ratios), geomean(ratios)))
	p.det["spec_cycle_ratio"] = geomean(ratios)
	p.det["spec_code_bytes"] = float64(in.codeBytes)
	submitted := float64(st.Submitted - before.Submitted)
	p.det["brewsvc.hit_ratio"] = float64(st.CacheHits-before.CacheHits) / submitted
	p.det["brewsvc.traces"] = float64(st.Traces - before.Traces)
	p.det["brewsvc.coalesce_hits"] = float64(st.CoalesceHits - before.CoalesceHits)
	p.det["brewsvc.evictions"] = float64(st.Evictions - before.Evictions)
	p.det["brewsvc.degraded"] = float64(st.Degraded - before.Degraded)
	p.det["brewsvc.sheds"] = float64(sumSheds(st) - sumSheds(before))
	return p
}

func sumSheds(st brewsvc.Stats) uint64 { return st.Sheds[0] + st.Sheds[1] + st.Sheds[2] }
