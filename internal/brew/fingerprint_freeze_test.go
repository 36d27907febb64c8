package brew

import (
	"math/rand"
	"testing"
	"time"
)

// fingerprintPopulation builds the seeded configurations behind
// TestFingerprintFreeze. It reaches every input Fingerprint canonicalizes:
// up to 12 ranges with duplicates and shared starts, up to 19 FuncOpts
// (the UnrollFactor sugar included), dynamic markers with false entries
// (only reachable inside the package), nil and set budgets, both efforts.
func fingerprintPopulation() []*Config {
	rng := rand.New(rand.NewSource(36))
	cfgs := make([]*Config, 0, 256)
	for i := 0; i < 256; i++ {
		c := NewConfig()
		for p := 1; p <= len(c.intParams); p++ {
			switch rng.Intn(4) {
			case 1:
				c.SetParam(p, ParamKnown)
			case 2:
				c.SetParamPtrToKnown(p, uint64(8*(1+rng.Intn(16))))
			}
		}
		for p := 1; p <= len(c.floatParams); p++ {
			if rng.Intn(3) == 0 {
				c.SetFloatParam(p, ParamKnown)
			}
		}
		for j, n := 0, rng.Intn(13); j < n; j++ {
			if j > 0 && rng.Intn(4) == 0 {
				r := c.knownRanges[rng.Intn(len(c.knownRanges))]
				c.SetMemRange(r.Start, r.End)
				continue
			}
			start := uint64(rng.Intn(16)) * 0x100
			c.SetMemRange(start, start+uint64(1+rng.Intn(4))*0x40)
		}
		for j, n := 0, rng.Intn(20); j < n; j++ {
			c.SetFuncOpts(uint64(0x1000+rng.Intn(64)*0x10), FuncOpts{
				NoInline:        rng.Intn(2) == 0,
				BranchesUnknown: rng.Intn(2) == 0,
				ResultsUnknown:  rng.Intn(2) == 0,
				MaxVariants:     rng.Intn(3),
				UnrollFactor:    2 * rng.Intn(3),
			})
		}
		for j, n := 0, rng.Intn(20); j < n; j++ {
			c.dynMarkers[uint64(0x8000+rng.Intn(64)*8)] = rng.Intn(3) != 0
		}
		if rng.Intn(3) == 0 {
			c.Defaults = FuncOpts{ResultsUnknown: true, UnrollFactor: 4}
		}
		if rng.Intn(3) == 0 {
			c.MaxTracedInstrs = rng.Intn(1 << 20)
			c.MaxBlocks = rng.Intn(4096)
			c.MaxInlineDepth = rng.Intn(32)
			c.MaxVariantsPerAddr = rng.Intn(16)
			c.MaxCodeBytes = rng.Intn(1 << 18)
		}
		if rng.Intn(3) == 0 {
			c.EntryHandler = uint64(rng.Intn(8)) * 0x40
			c.ExitHandler = uint64(rng.Intn(8)) * 0x40
			c.LoadHandler = uint64(rng.Intn(8)) * 0x40
			c.StoreHandler = uint64(rng.Intn(8)) * 0x40
		}
		c.Vectorize = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			c.Effort = EffortQuick
		}
		if rng.Intn(2) == 0 {
			c.Budget = &Budget{
				MaxTracedInstrs: rng.Intn(1000),
				MaxEmittedBytes: rng.Intn(1000),
				Deadline:        time.Duration(rng.Intn(1000)) * time.Microsecond,
			}
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestFingerprintFreeze pins Config.Fingerprint over the seeded population
// to the values in fingerprint_golden_test.go. Fingerprints key the
// service's cache and shards and the persistent store's records, so a
// moved value re-routes every one of them; the golden is never re-pinned
// for a refactor of Fingerprint's implementation.
func TestFingerprintFreeze(t *testing.T) {
	cfgs := fingerprintPopulation()
	if len(cfgs) != len(fingerprintGolden) {
		t.Fatalf("population has %d configs, golden %d", len(cfgs), len(fingerprintGolden))
	}
	for i, c := range cfgs {
		if got := c.Fingerprint(); got != fingerprintGolden[i] {
			t.Errorf("config %d: fingerprint %#016x, golden %#016x", i, got, fingerprintGolden[i])
		}
	}
}
