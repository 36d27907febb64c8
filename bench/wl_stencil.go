package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/brew"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// stencil-steady: the paper's seven Section V variants, round-robin over a
// cache-resident and an L3-only grid. Every rewrite happens in setup, so
// the timed phase is pure emulation.

// goldenTol is the checksum tolerance against the host-arithmetic goldens.
const goldenTol = 1e-9

// stencilVariant is one of E1a..E3b on one grid.
type stencilVariant struct {
	name string
	// base names the original the variant specializes ("" for originals
	// and manual kernels); its cycles are the ratio's denominator.
	base     string
	codeSize int
	run      func() (float64, error)
}

type stencilGrid struct {
	label    string // "small" or "large"
	w        *stencil.Workload
	variants []stencilVariant
	golden   float64
}

func newStencilGrid(label string, xs, ys int) (*stencilGrid, error) {
	w, err := stencil.New(vm.MustNew(), xs, ys)
	if err != nil {
		return nil, err
	}
	var res [3]*brew.Result
	for i, rewrite := range []func() (*brew.Result, error){w.RewriteApply, w.RewriteApplyGrouped, w.RewriteSweep} {
		if res[i], err = rewrite(); err != nil {
			return nil, fmt.Errorf("stencil %s rewrite %d: %w", label, i, err)
		}
	}
	g := &stencilGrid{label: label, w: w, golden: w.Golden(1)}
	g.variants = []stencilVariant{
		{"E1a", "", 0, func() (float64, error) { return w.RunSweeps(w.Apply, false, 1) }},
		{"E1b", "", 0, func() (float64, error) { return w.RunSweeps(w.ApplyManual, false, 1) }},
		{"E1c", "E1a", res[0].CodeSize, func() (float64, error) { return w.RunSweeps(res[0].Addr, false, 1) }},
		{"E2a", "", 0, func() (float64, error) { return w.RunSweeps(w.ApplyGrouped, true, 1) }},
		{"E2b", "E2a", res[1].CodeSize, func() (float64, error) { return w.RunSweeps(res[1].Addr, true, 1) }},
		{"E3a", "", 0, func() (float64, error) { return w.RunSweepsInlined(w.SweepInlined, 1) }},
		{"E3b", "E1a", res[2].CodeSize, func() (float64, error) { return w.RunRewrittenSweeps(res[2].Addr, 1) }},
	}
	// One sweep fills the simulated cache, so the first timed sweep's cycles
	// do not depend on which variant the seed happens to put first.
	if _, err := g.variants[1].run(); err != nil {
		return nil, err
	}
	return g, nil
}

type stencilInst struct {
	small, large *stencilGrid
	smallReps    int
	order        []int // seeded variant order
}

func setupStencil(seed int64, sz sizing, _ string) (instance, error) {
	small, err := newStencilGrid("small", sz.Small[0], sz.Small[1])
	if err != nil {
		return nil, err
	}
	large, err := newStencilGrid("large", sz.Large[0], sz.Large[1])
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(small.variants))
	return &stencilInst{small: small, large: large, smallReps: sz.SmallReps, order: order}, nil
}

func (s *stencilInst) close() {}

func (s *stencilInst) pass(rec *recorder) *passStats {
	p := &passStats{det: map[string]float64{}}
	cycles := map[string]uint64{} // "<grid>.<variant>" -> cycles of its first sweep this pass
	req := 0
	op := func(g *stencilGrid, v stencilVariant) {
		req++
		var one emuMeter
		root := rec.begin(0, req, opLayer, "sweep")
		call := rec.begin(root, req, "vm", g.label+"."+v.name)
		var got float64
		err := one.run(g.w.M, func() (err error) { got, err = v.run(); return err })
		rec.end(call)
		rec.end(root)
		p.ops++
		p.lat = append(p.lat, one.ns)
		p.emu.add(one)
		key := g.label + "." + v.name
		if _, seen := cycles[key]; !seen {
			cycles[key] = one.cycles
			p.det["cycles."+key] = float64(one.cycles)
		}
		switch {
		case err != nil:
			p.fail("%s: %v", key, err)
		case math.Abs(got-g.golden) > goldenTol:
			p.fail("%s: checksum %g, golden %g", key, got, g.golden)
		}
	}
	m0 := mallocs()
	t0 := time.Now()
	for r := 0; r < s.smallReps; r++ {
		for _, i := range s.order {
			op(s.small, s.small.variants[i])
		}
	}
	for _, i := range s.order {
		op(s.large, s.large.variants[i])
	}
	p.wall = time.Since(t0)
	p.mallocs = mallocs() - m0

	var ratios []float64
	var bytes int
	for _, g := range []*stencilGrid{s.small, s.large} {
		e1a := float64(cycles[g.label+".E1a"])
		for _, v := range g.variants {
			c := float64(cycles[g.label+"."+v.name])
			row := fmt.Sprintf("%s %s: %.0f cycles, %.3f of E1a", g.label, v.name, c, c/e1a)
			if paper, ok := paperRatios[v.name]; ok {
				row += fmt.Sprintf(" (paper %.2f)", paper)
			}
			if v.base != "" {
				r := c / float64(cycles[g.label+"."+v.base])
				ratios = append(ratios, r)
				bytes += v.codeSize
				row += fmt.Sprintf("; %.3f of its original %s, %d bytes", r, v.base, v.codeSize)
			}
			p.rows = append(p.rows, row)
		}
	}
	p.det["spec_cycle_ratio"] = geomean(ratios)
	p.det["spec_code_bytes"] = float64(bytes)
	p.timed = p.emu
	return p
}
