package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/pgas"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// modelCycles prices what m has executed from its counters alone: every
// opcode at its base cost, every probe of a cache level at that level's
// latency (cache.Default: 4/12/36), every last-level miss at the memory
// latency (160), one cycle per taken conditional branch, and the region
// and function surcharges. calls counts the calls to each FuncCost target.
func modelCycles(m *vm.Machine, calls map[uint64]uint64) uint64 {
	s := &m.Stats
	var c uint64
	for op, n := range s.OpCount {
		c += n * uint64(isa.Opcode(op).Cost())
	}
	latency := map[string]uint64{"L1": 4, "L2": 12, "L3": 36}
	levels := m.Cache.Stats()
	for _, lv := range levels {
		c += (lv.Hits + lv.Misses) * latency[lv.Name]
	}
	c += levels[len(levels)-1].Misses * 160
	c += s.TakenBranches - s.OpCount[isa.JMP] - s.OpCount[isa.JMPR]
	for _, rc := range m.RegionCosts {
		c += rc.Count * uint64(rc.Extra)
	}
	for target, n := range calls {
		c += n * uint64(m.FuncCost[target])
	}
	return c
}

func checkCycles(t *testing.T, what string, m *vm.Machine, calls map[uint64]uint64) {
	t.Helper()
	if want := modelCycles(m, calls); m.Stats.Cycles != want {
		t.Errorf("%s: Stats.Cycles = %d, the cost model prices the counters at %d (off by %d)",
			what, m.Stats.Cycles, want, int64(m.Stats.Cycles-want))
	}
}

// TestCycleIdentity: Stats.Cycles is exactly what the cost model's prices
// make of the machine's counters, on the paper's seven Section V variants
// over both benchmark grids, on a pgas sum with its remote-access and
// transfer surcharges, and on 80 generated programs run before and after
// their rewrite. However the loop charges — per instruction or per
// straight-line run, with a fault or a code write cutting a run short — it
// may not gain or lose a cycle.
func TestCycleIdentity(t *testing.T) {
	t.Run("stencil", func(t *testing.T) {
		for _, grid := range [][2]int{{64, 48}, {192, 144}} {
			w, err := stencil.New(vm.MustNew(), grid[0], grid[1])
			if err != nil {
				t.Fatal(err)
			}
			var res [3]*brew.Result
			for i, rewrite := range []func() (*brew.Result, error){w.RewriteApply, w.RewriteApplyGrouped, w.RewriteSweep} {
				if res[i], err = rewrite(); err != nil {
					t.Fatal(err)
				}
			}
			variants := []struct {
				name string
				run  func() (float64, error)
			}{
				{"E1a", func() (float64, error) { return w.RunSweeps(w.Apply, false, 1) }},
				{"E1b", func() (float64, error) { return w.RunSweeps(w.ApplyManual, false, 1) }},
				{"E1c", func() (float64, error) { return w.RunSweeps(res[0].Addr, false, 1) }},
				{"E2a", func() (float64, error) { return w.RunSweeps(w.ApplyGrouped, true, 1) }},
				{"E2b", func() (float64, error) { return w.RunSweeps(res[1].Addr, true, 1) }},
				{"E3a", func() (float64, error) { return w.RunSweepsInlined(w.SweepInlined, 1) }},
				{"E3b", func() (float64, error) { return w.RunRewrittenSweeps(res[2].Addr, 1) }},
			}
			for _, v := range variants {
				if _, err := v.run(); err != nil {
					t.Fatalf("%dx%d %s: %v", grid[0], grid[1], v.name, err)
				}
				checkCycles(t, fmt.Sprintf("%dx%d %s", grid[0], grid[1], v.name), w.M, nil)
			}
		}
	})
	t.Run("pgas", func(t *testing.T) {
		s, err := pgas.New(vm.MustNew(), 4, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fill(func(i int) float64 { return float64(i % 5) }); err != nil {
			t.Fatal(err)
		}
		calls := map[uint64]uint64{}
		s.M.OnCall = func(target uint64, _ *vm.CPU) {
			if _, ok := s.M.FuncCost[target]; ok {
				calls[target]++
			}
		}
		if _, err := s.Sum(0, s.Len()); err != nil {
			t.Fatal(err)
		}
		if len(calls) == 0 {
			t.Fatal("the sum made no surcharged call")
		}
		checkCycles(t, "pgas sum", s.M, calls)
	})
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < 80; seed++ {
			c := oracle.Generated(seed)
			inst, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			m := inst.M
			m.UserStepLimit = 1 << 20
			fns := []uint64{inst.Fn}
			if out, err := brew.Do(m, &brew.Request{Config: inst.Cfg, Fn: inst.Fn, Args: inst.Args}); err == nil {
				fns = append(fns, out.Addr)
			}
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3; i++ {
				args, _ := c.NewArgs(r)
				for _, fn := range fns {
					// A fault ends a call early; the identity holds all
					// the same.
					_, _ = m.Call(fn, args...)
				}
			}
			checkCycles(t, fmt.Sprintf("seed %d", seed), m, nil)
		}
	})
}
