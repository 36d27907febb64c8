package brew_test

import (
	"runtime"
	"testing"

	"repro/internal/brew"
)

// Allocation ceilings for one brew.Do (install included, plus the FreeJIT
// that lets the next run land at the same address). The parent's counts —
// map-based known worlds, map-based live sets, a listing rendered through
// fmt on every rewrite — were measured at commit 2fa00c5 with this very
// test; each ceiling is a tenth of the parent's count, rounded down.
//
//	case              parent   ceiling   here
//	E1c-apply/full      1907       190     79
//	E1c-apply/quick      897        89     54
//	gen-16/full       195683     19567    977
//	gen-16/quick       54358      5435    953
var allocCeilings = []struct {
	name    string
	effort  brew.Effort
	ceiling float64
}{
	{"E1c-apply", brew.EffortFull, 190},
	{"E1c-apply", brew.EffortQuick, 89},
	{"gen-16", brew.EffortFull, 19567},
	{"gen-16", brew.EffortQuick, 5435},
}

func TestAllocationCeilings(t *testing.T) {
	byName := map[string]frozenCase{}
	for _, c := range corpus(t) {
		byName[c.Name] = c
	}
	for _, ac := range allocCeilings {
		c, ok := byName[ac.name]
		if !ok {
			t.Fatalf("no corpus case %q", ac.name)
		}
		inst := c.build(t)
		req := c.request(inst, ac.effort)
		got := testing.AllocsPerRun(10, func() {
			out, err := brew.Do(inst.M, req)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.M.FreeJIT(out.Addr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s: %.0f allocations per Do", ac.name, ac.effort, got)
		if got > ac.ceiling {
			t.Errorf("%s/%s: %.0f allocations per Do, ceiling %.0f", ac.name, ac.effort, got, ac.ceiling)
		}
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedCeiling is what the Outcomes of the whole freeze corpus (84
// rewrites) kept alive at commit 2fa00c5 once their machines were gone,
// measured with this very test: 11.9 MB (three runs: 11 901 072, 11 900 992,
// 11 906 352), nearly all of it rendered listings; this tree keeps 6.2 MB.
// What a held Result retains is live heap for whoever caches results (the
// service, the benchmark's instances); it may not grow.
const retainedCeiling = 11_900_000

func TestRetainedHeap(t *testing.T) {
	cases := corpus(t)
	outs := make([]*brew.Outcome, 0, 2*len(cases))
	before := heapAlloc()
	for _, c := range cases {
		inst := c.build(t)
		for _, effort := range bothEfforts {
			if r := newFrozenRun(t, c, inst, effort); r.err == nil {
				outs = append(outs, r.out)
			}
		}
	}
	retained := int64(heapAlloc()) - int64(before)
	runtime.KeepAlive(outs)
	t.Logf("%d outcomes retain %d bytes", len(outs), retained)
	if retained > retainedCeiling {
		t.Errorf("%d outcomes retain %d bytes, ceiling %d", len(outs), retained, retainedCeiling)
	}
}
