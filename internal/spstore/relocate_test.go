package spstore_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/brew"
	"repro/internal/oracle"
	"repro/internal/spstore"
	"repro/internal/vm"
)

// TestRelocateRoundTripOverCorpus: every corpus rewrite, at both efforts,
// moved to 16 seeded JIT addresses and back again is byte-identical to its
// record. The corpus inlines every call, so the guests that keep one ride
// along: at least one move must have had a field to re-aim, or the property
// says nothing (as in brew.TestLayoutTwoBases).
func TestRelocateRoundTripOverCorpus(t *testing.T) {
	cases, err := oracle.CorpusCases()
	if err != nil {
		t.Fatal(err)
	}
	kept, err := oracle.KeptCallCases()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, kept...)
	records, moves, reaimed := 0, 0, 0
	for _, effort := range []brew.Effort{brew.EffortFull, brew.EffortQuick} {
		for i, c := range cases {
			inst, err := c.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", c.Name, err)
			}
			inst.Cfg.Effort = effort
			out, err := brew.Do(inst.M, &brew.Request{Config: inst.Cfg, Fn: inst.Fn, Args: inst.Args, FArgs: inst.FArgs})
			if err != nil {
				continue // rewriter refusal: nothing to persist
			}
			rec, err := spstore.Capture(inst.M, inst.Cfg, inst.Fn, inst.Args, inst.FArgs, nil, out)
			if err != nil {
				t.Fatalf("%s/%s: capture: %v", c.Name, effort, err)
			}
			records++
			moveTo, err := spstore.Relocator(rec)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, effort, err)
			}
			r := rand.New(rand.NewSource(int64(i) + 1))
			slots := int64(vm.JITSize-rec.CodeSize) / 16
			// The unrolled bodies (up to 200 KB) are most of the bytes and
			// more of the same instructions: two addresses each.
			addrs := 16
			if rec.CodeSize > 16<<10 {
				addrs = 2
			}
			moves += addrs
			for n := 0; n < addrs; n++ {
				at := vm.JITBase + 16*uint64(r.Int63n(slots))
				moved, err := moveTo(at)
				if err != nil {
					t.Fatalf("%s/%s: to %#x: %v", c.Name, effort, at, err)
				}
				there := *rec
				there.CodeAddr, there.Code = at, moved
				moveBack, err := spstore.Relocator(&there)
				if err != nil {
					t.Fatalf("%s/%s: at %#x: %v", c.Name, effort, at, err)
				}
				back, err := moveBack(rec.CodeAddr)
				if err != nil {
					t.Fatalf("%s/%s: back from %#x: %v", c.Name, effort, at, err)
				}
				if !bytes.Equal(back, rec.Code) {
					t.Fatalf("%s/%s: moved to %#x and back, the body differs from its record", c.Name, effort, at)
				}
				if at != rec.CodeAddr && !bytes.Equal(moved, rec.Code) {
					reaimed++
				}
			}
		}
	}
	if reaimed == 0 {
		t.Fatalf("%d records, none has a branch leaving its body: the round trip is vacuous", records)
	}
	t.Logf("%d records, %d of %d moves re-aimed a field", records, reaimed, moves)
}
