package brewsvc_test

import (
	"math/rand"
	"testing"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/vm"
)

// keyPopulation builds the seeded requests behind TestKeyFreeze: a few
// configurations with different known-parameter sets, argument vectors
// shorter and longer than the declared parameters, and 0, 1 or 5–12
// guards with duplicate params (equal and unequal values) in unsorted
// order.
func keyPopulation() []*brewsvc.Request {
	rng := rand.New(rand.NewSource(36))
	cfgs := []func() *brew.Config{
		brew.NewConfig,
		func() *brew.Config { return brew.NewConfig().SetParam(2, brew.ParamKnown) },
		func() *brew.Config {
			c := brew.NewConfig().SetParam(1, brew.ParamKnown).SetParamPtrToKnown(3, 64)
			c.SetFloatParam(2, brew.ParamKnown)
			return c.SetMemRange(0x1000, 0x1040).SetMemRange(0x2000, 0x2010)
		},
		func() *brew.Config {
			c := brew.NewConfig().SetParam(6, brew.ParamKnown).SetFloatParam(1, brew.ParamKnown)
			c.SetFloatParam(8, brew.ParamKnown)
			c.Effort = brew.EffortQuick
			return c
		},
	}
	reqs := make([]*brewsvc.Request, 0, 256)
	for i := 0; i < 256; i++ {
		req := &brewsvc.Request{
			Config: cfgs[rng.Intn(len(cfgs))](),
			Fn:     uint64(0x400000 + rng.Intn(4)*0x100),
		}
		for j, n := 0, rng.Intn(8); j < n; j++ {
			req.Args = append(req.Args, uint64(rng.Intn(5)))
		}
		for j, n := 0, rng.Intn(9); j < n; j++ {
			req.FArgs = append(req.FArgs, float64(rng.Intn(5))/4)
		}
		var n int
		switch rng.Intn(3) {
		case 1:
			n = 1
		case 2:
			n = 5 + rng.Intn(8)
		}
		for j := 0; j < n; j++ {
			if j > 0 && rng.Intn(3) == 0 {
				g := req.Guards[rng.Intn(len(req.Guards))]
				if rng.Intn(2) == 0 {
					g.Value = uint64(rng.Intn(4))
				}
				req.Guards = append(req.Guards, g)
				continue
			}
			req.Guards = append(req.Guards, brew.ParamGuard{Param: 1 + rng.Intn(6), Value: uint64(rng.Intn(4))})
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// TestKeyFreeze pins the service's keys over the seeded requests to the
// values in key_golden_test.go: the cache key and entry key words
// (KeyWords) and the owning shard of an 8-shard service. Shard routing,
// cache-shard eviction and store keys all follow these values, so
// the golden is never re-pinned for a refactor of key derivation.
func TestKeyFreeze(t *testing.T) {
	svc := brewsvc.Open(vm.MustNew(), brewsvc.WithShards(8), brewsvc.WithWorkers(1))
	defer svc.Close()
	reqs := keyPopulation()
	if len(reqs) != len(keyGolden) {
		t.Fatalf("population has %d requests, golden %d", len(reqs), len(keyGolden))
	}
	for i, req := range reqs {
		w := brewsvc.KeyWords(req)
		got := [6]uint64{w[0], w[1], w[2], w[3], w[4], uint64(svc.ShardIndexOf(req))}
		if got != keyGolden[i] {
			t.Errorf("request %d: keys %#x, golden %#x", i, got, keyGolden[i])
		}
	}
}
