package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/minc"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// The key population the two service workloads share: FleetFns small minc
// functions, each guarded on two values, plus the three stencil kernels —
// on one machine, behind one brewsvc.Service.

// fleetX is the unguarded argument of every verified fleet call.
const fleetX = 7

// svcKey is one specialization key and how to verify what it returns.
type svcKey struct {
	name   string
	fn     uint64
	cfg    *brew.Config
	args   []uint64
	guards []brew.ParamGuard
	// run makes one emulated call through addr, a drop-in for fn.
	run func(addr uint64) (float64, error)
	// want is the reference for run's result: a closed form or host
	// arithmetic, never the rewriter's output.
	want func() float64
	// frozen marks keys whose specialization assumes the s5 stencil
	// descriptor; writing a coefficient deoptimizes them.
	frozen bool
}

func (k *svcKey) request() *brewsvc.Request {
	return &brewsvc.Request{Config: k.cfg, Fn: k.fn, Args: k.args, Guards: k.guards}
}

// fleet is one booted machine with the key population linked in.
type fleet struct {
	m    *vm.Machine
	w    *stencil.Workload
	poke uint64
	keys []*svcKey
	// coef0 is the current value of s5.p[0].f, the coefficient the churn
	// workload rewrites (-1 as compiled).
	coef0 float64
}

func fleetSrc(n int) string {
	var src strings.Builder
	for i := 0; i < n; i++ {
		// The loop bound is a constant, not the guarded parameter, so every
		// key costs the same trace work (as in cmd/brew-load's fleet).
		fmt.Fprintf(&src, `
long load%d(long x, long k) {
    long r = %d;
    for (long i = 0; i < 8; i++) { r = r + x + k + i; }
    return r;
}`, i, i+1)
	}
	src.WriteString("\ndouble poke(double *p, double v) { p[0] = v; return v; }\n")
	return src.String()
}

// hostSweep is one 5-point sweep over the stencil workload's initial
// matrix in host arithmetic with centre coefficient coef0: the reference
// for sweeps after a coefficient was rewritten. With coef0 = -1 it equals
// stencil.Workload.Golden(1).
func hostSweep(xs, ys int, coef0 float64) float64 {
	m1 := make([]float64, xs*ys)
	for i := range m1 {
		m1[i] = float64((i*31)%17) * 0.125
	}
	var acc float64
	for y := 1; y < ys-1; y++ {
		for x := 1; x < xs-1; x++ {
			c := y*xs + x
			// apply() accumulates point by point in descriptor order.
			v := 0.0
			v += coef0 * m1[c]
			v += 0.25 * m1[c-1]
			v += 0.25 * m1[c+1]
			v += 0.25 * m1[c-xs]
			v += 0.25 * m1[c+xs]
			acc += v
		}
	}
	return acc
}

// bootFleet builds a machine holding the population. guardVals are the two
// guard values per fleet function (drawn from the seed by the caller);
// grid is the stencil grid behind the three kernel keys.
func bootFleet(fns int, guardVals [][2]uint64, grid [2]int) (*fleet, error) {
	m, err := vm.New()
	if err != nil {
		return nil, err
	}
	l, err := minc.CompileAndLink(m, fleetSrc(fns), nil)
	if err != nil {
		return nil, fmt.Errorf("fleet compile: %w", err)
	}
	w, err := stencil.New(m, grid[0], grid[1])
	if err != nil {
		return nil, err
	}
	f := &fleet{m: m, w: w, coef0: -1}
	if f.poke, err = l.FuncAddr("poke"); err != nil {
		return nil, err
	}
	for v := 0; v < 2; v++ {
		for i := 0; i < fns; i++ {
			fn, err := l.FuncAddr(fmt.Sprintf("load%d", i))
			if err != nil {
				return nil, err
			}
			val, fni := guardVals[i][v], i
			f.keys = append(f.keys, &svcKey{
				name: fmt.Sprintf("load%d[k=%d]", i, val), fn: fn, cfg: brew.NewConfig(),
				args: []uint64{0, 0}, guards: []brew.ParamGuard{{Param: 2, Value: val}},
				run: func(addr uint64) (float64, error) {
					r, err := m.Call(addr, fleetX, val)
					return float64(r), err
				},
				// r = fni+1, then eight rounds of r += x + k + i, i = 0..7.
				want: func() float64 { return float64(uint64(fni+1) + 8*fleetX + 8*val + 28) },
			})
		}
	}
	aCfg, aArgs := w.ApplyConfig()
	gCfg, gArgs := w.GroupedConfig()
	sCfg, sArgs := w.SweepConfig()
	sweep := func() float64 { return hostSweep(w.XS, w.YS, f.coef0) }
	f.keys = append(f.keys,
		&svcKey{name: "stencil.apply", fn: w.Apply, cfg: aCfg, args: aArgs, frozen: true, want: sweep,
			run: func(a uint64) (float64, error) { return w.RunSweeps(a, false, 1) }},
		&svcKey{name: "stencil.apply_grouped", fn: w.ApplyGrouped, cfg: gCfg, args: gArgs,
			want: func() float64 { return hostSweep(w.XS, w.YS, -1) },
			run:  func(a uint64) (float64, error) { return w.RunSweeps(a, true, 1) }},
		&svcKey{name: "stencil.sweep", fn: w.Sweep, cfg: sCfg, args: sArgs, frozen: true, want: sweep,
			run: func(a uint64) (float64, error) { return w.RunRewrittenSweeps(a, 1) }},
	)
	return f, nil
}

// guardValues draws two distinct guard values per fleet function, all
// from one immediate-width class so code size does not vary with the seed.
func guardValues(r *rand.Rand, fns int) [][2]uint64 {
	out := make([][2]uint64, fns)
	for i := range out {
		a := uint64(1_000 + r.Intn(500_000))
		out[i] = [2]uint64{a, a + 1 + uint64(r.Intn(500_000))}
	}
	return out
}

// call makes one verified emulated call of addr for key k.
func (f *fleet) call(k *svcKey, addr uint64, emu *emuMeter) error {
	var got float64
	err := emu.run(f.m, func() (err error) { got, err = k.run(addr); return err })
	if err != nil {
		return err
	}
	if want := k.want(); math.Abs(got-want) > goldenTol*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("%s: got %g, reference %g", k.name, got, want)
	}
	return nil
}

// cycleRatio calls addr and the original, each verified and from a cold
// simulated cache, and returns cycles(specialized) / cycles(original).
func (f *fleet) cycleRatio(k *svcKey, addr uint64, emu *emuMeter) (float64, error) {
	var spec, orig emuMeter
	f.m.Cache.Reset()
	if err := f.call(k, addr, &spec); err != nil {
		return 0, err
	}
	f.m.Cache.Reset()
	if err := f.call(k, k.fn, &orig); err != nil {
		return 0, fmt.Errorf("original: %w", err)
	}
	emu.add(spec)
	emu.add(orig)
	return float64(spec.cycles) / float64(orig.cycles), nil
}

// writeCoef stores v into s5.p[0].f with an emulated store, which is what
// trips the assumption watchpoints of the frozen keys.
func (f *fleet) writeCoef(v float64, emu *emuMeter) error {
	err := emu.run(f.m, func() error {
		_, err := f.m.CallFloat(f.poke, []uint64{f.w.S5 + 8}, []float64{v})
		return err
	})
	if err == nil {
		f.coef0 = v
	}
	return err
}
