package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/minc"
	"repro/internal/oracle"
	"repro/internal/pgas"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// rewrite-corpus: one brew.Do per op over the paper's guests and a frozen
// pool of generated programs, each at both effort tiers. After every pass
// each produced address is called against its reference and released.

// corpusSeeds is the frozen pool of oracle.Generated programs: the first
// seeds the rewriter accepts at both efforts with 300..8000 traced
// instructions (README.md, "Sizing"). The benchmark's seed orders the ops
// and draws the check arguments; it does not change the pool, so host
// numbers stay comparable across seeds.
var corpusSeeds = []int64{
	2, 3, 4, 5, 9, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 26, 28, 29,
	30, 33, 36, 37, 38, 43, 44, 45, 47, 51, 52, 53, 55, 56, 58, 59, 60, 61, 62, 67,
}

// x2Src is the small-function call chain of experiment X2.
const x2Src = `
double leaf(double x, double y) { return x * y + 1.0; }
double mid(double x, double y) { return leaf(x, y) + leaf(y, x); }
double chain(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += mid(a[i], s); }
    return s;
}
`

const x2Len = 16

// checkTrials is the number of argument vectors a generated program's
// specialization is checked on.
const checkTrials = 2

// generatedStepLimit bounds one emulated run of a generated program (the
// oracle's limit).
const generatedStepLimit = 8 << 20

// target is one function of the corpus.
type target struct {
	name  string
	paper bool // one of the paper's guests: gets its own printed ratio row
	m     *vm.Machine
	fn    uint64
	cfg   *brew.Config
	args  []uint64
	// check calls addr, a drop-in replacement for fn, compares every
	// result with the reference and returns the emulated cycles spent.
	check func(addr uint64, emu *emuMeter) (cycles uint64, err error)
	// origCycles is what check costs when addr is fn itself.
	origCycles uint64
	// window is the guest code the tracer reads, for the isa ladder rung.
	window []isa.Instr
}

// request builds the target's brew request at one effort.
func (t *target) request(e brew.Effort) *brew.Request {
	cfg := t.cfg.Clone()
	cfg.Effort = e
	return &brew.Request{Config: cfg, Fn: t.fn, Args: t.args}
}

// guestCode decodes everything the machine's code segment holds beyond
// the HALT stub, stepping over alignment padding between functions.
func guestCode(m *vm.Machine) ([]isa.Instr, error) {
	lo := m.HaltAddr() + 16
	b, err := m.Mem.ReadBytes(lo, int(vm.CodeBase+m.CodeAlloc.LiveBytes()-lo))
	if err != nil {
		return nil, err
	}
	var out []isa.Instr
	for off := 0; off < len(b); {
		in, err := isa.Decode(b[off:], lo+uint64(off))
		if err != nil {
			off = (off + 16) &^ 15
			continue
		}
		out = append(out, in)
		off += in.Len
	}
	return out, nil
}

// coldCycles runs f from a cold simulated cache and returns the emulated
// cycles it took, so original and specialized runs start from one state.
func coldCycles(m *vm.Machine, emu *emuMeter, f func() error) (uint64, error) {
	m.Cache.Reset()
	var one emuMeter
	err := one.run(m, f)
	emu.add(one)
	return one.cycles, err
}

func stencilTargets(xs, ys int) ([]*target, error) {
	w, err := stencil.New(vm.MustNew(), xs, ys)
	if err != nil {
		return nil, err
	}
	golden := w.Golden(1)
	sweepCheck := func(run func(addr uint64) (float64, error)) func(uint64, *emuMeter) (uint64, error) {
		return func(addr uint64, emu *emuMeter) (uint64, error) {
			var got float64
			c, err := coldCycles(w.M, emu, func() (err error) { got, err = run(addr); return err })
			if err == nil && math.Abs(got-golden) > goldenTol {
				err = fmt.Errorf("checksum %g, golden %g", got, golden)
			}
			return c, err
		}
	}
	aCfg, aArgs := w.ApplyConfig()
	gCfg, gArgs := w.GroupedConfig()
	sCfg, sArgs := w.SweepConfig()
	ts := []*target{
		{name: "stencil.apply (E1c)", fn: w.Apply, cfg: aCfg, args: aArgs,
			check: sweepCheck(func(a uint64) (float64, error) { return w.RunSweeps(a, false, 1) })},
		{name: "stencil.apply_grouped (E2b)", fn: w.ApplyGrouped, cfg: gCfg, args: gArgs,
			check: sweepCheck(func(a uint64) (float64, error) { return w.RunSweeps(a, true, 1) })},
		{name: "stencil.sweep (E3b)", fn: w.Sweep, cfg: sCfg, args: sArgs,
			check: sweepCheck(func(a uint64) (float64, error) { return w.RunRewrittenSweeps(a, 1) })},
	}
	for _, t := range ts {
		t.m, t.paper = w.M, true
	}
	return ts, nil
}

// pgasTarget is gsum specialized for the distribution, over the plain
// getter on a local range or, prefetched, over the preloaded remote range.
func pgasTarget(prefetched bool) (*target, error) {
	const nodes, bs, me = 4, 256, 1
	s, err := pgas.New(vm.MustNew(), nodes, bs, me)
	if err != nil {
		return nil, err
	}
	if err := s.Fill(func(i int) float64 { return float64(i%17) * 0.25 }); err != nil {
		return nil, err
	}
	name, getter, lo := "pgas.SpecializeSum", s.PgasGet, me*bs
	if prefetched {
		name, getter, lo = "pgas.SpecializeSumPrefetched", s.PgasGetPref, ((me+1)%nodes)*bs
		if err := s.Preload(lo, lo+bs); err != nil {
			return nil, err
		}
	}
	golden, err := s.Golden(lo, lo+bs)
	if err != nil {
		return nil, err
	}
	// The configuration of pgas.System.SpecializeSum*, spelled out so the
	// effort tier can be set.
	cfg := brew.NewConfig().SetParamPtrToKnown(1, pgas.DescriptorSize).SetParam(4, brew.ParamKnown)
	cfg.SetFuncOpts(s.GSum, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	return &target{name: name, paper: true, m: s.M, fn: s.GSum, cfg: cfg,
		args: []uint64{s.Garr, 0, 0, getter},
		check: func(addr uint64, emu *emuMeter) (uint64, error) {
			var got float64
			c, err := coldCycles(s.M, emu, func() (err error) { got, err = s.SumWith(addr, getter, lo, lo+bs); return err })
			if err == nil && math.Abs(got-golden) > goldenTol {
				err = fmt.Errorf("sum %g, golden %g", got, golden)
			}
			return c, err
		}}, nil
}

func x2Target() (*target, error) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, x2Src, nil)
	if err != nil {
		return nil, err
	}
	arr, err := m.AllocHeap(x2Len * 8)
	if err != nil {
		return nil, err
	}
	// The closed form of chain() in host arithmetic, same operation order.
	want := 0.0
	for i := 0; i < x2Len; i++ {
		a := float64(i%5) * 0.05
		if err := m.Mem.WriteF64(arr+uint64(8*i), a); err != nil {
			return nil, err
		}
		want += (a*want + 1.0) + (want*a + 1.0)
	}
	fn, err := l.FuncAddr("chain")
	if err != nil {
		return nil, err
	}
	cfg := brew.NewConfig()
	cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	return &target{name: "x2.chain", paper: true, m: m, fn: fn, cfg: cfg,
		check: func(addr uint64, emu *emuMeter) (uint64, error) {
			var got float64
			c, err := coldCycles(m, emu, func() (err error) { got, err = m.CallFloat(addr, []uint64{arr, x2Len}, nil); return err })
			if err == nil && math.Abs(got-want) > goldenTol*math.Max(1, math.Abs(want)) {
				err = fmt.Errorf("chain %g, closed form %g", got, want)
			}
			return c, err
		}}, nil
}

// dataImage reads the machine's allocated globals.
func dataImage(m *vm.Machine) ([]byte, error) {
	b, err := m.Mem.ReadBytes(vm.DataBase, int(m.DataAlloc.LiveBytes()))
	return append([]byte(nil), b...), err
}

// genRef is one reference execution of a generated program's original
// function.
type genRef struct {
	args []uint64
	ret  uint64
	data []byte // globals afterwards
}

// generatedTarget builds the seed'th generated program. The references
// are the original function's results on this machine before anything is
// rewritten; check is brew-verify's equality — return value plus final
// writable memory — against them. (A twin machine per program, as the
// oracle uses, would double the 83 MB address spaces setup has to map.)
func generatedTarget(seed int64, r *rand.Rand) (*target, error) {
	c := oracle.Generated(seed)
	inst, err := c.Build()
	if err != nil {
		return nil, err
	}
	initial, err := dataImage(inst.M)
	if err != nil {
		return nil, err
	}
	// run executes fn from the initial globals and a cold cache.
	run := func(m *vm.Machine, emu *emuMeter, fn uint64, args []uint64) (ret uint64, data []byte, cycles uint64, err error) {
		if err = m.Mem.WriteBytes(vm.DataBase, initial); err != nil {
			return
		}
		m.UserStepLimit = generatedStepLimit
		cycles, err = coldCycles(m, emu, func() (err error) { ret, err = m.Call(fn, args...); return err })
		if err != nil {
			return
		}
		data, err = dataImage(m)
		return
	}
	t := &target{name: fmt.Sprintf("generated.%d", seed), m: inst.M, fn: inst.Fn, cfg: inst.Cfg, args: inst.Args}
	var refs []genRef
	var scratch emuMeter
	for tries := 0; len(refs) < checkTrials && tries < 8*checkTrials; tries++ {
		args, _ := c.NewArgs(r)
		ret, data, cycles, err := run(inst.M, &scratch, inst.Fn, args)
		if err != nil {
			continue // the original faults on this vector; draw another
		}
		refs = append(refs, genRef{args, ret, data})
		t.origCycles += cycles
	}
	if len(refs) < checkTrials {
		return nil, fmt.Errorf("generated %d: original faults on every drawn argument vector", seed)
	}
	t.check = func(addr uint64, emu *emuMeter) (uint64, error) {
		var total uint64
		for _, ref := range refs {
			ret, data, cycles, err := run(inst.M, emu, addr, ref.args)
			total += cycles
			switch {
			case err != nil:
				return total, err
			case ret != ref.ret:
				return total, fmt.Errorf("args %v: returned %d, original %d", ref.args, ret, ref.ret)
			case !bytes.Equal(data, ref.data):
				return total, fmt.Errorf("args %v: final globals differ from the original's", ref.args)
			}
		}
		return total, nil
	}
	return t, nil
}

// rewriteOp is one (function, effort) op of a pass.
type rewriteOp struct {
	t      *target
	effort brew.Effort
	req    *brew.Request
}

type rewriteInst struct {
	targets []*target
	ops     []rewriteOp // seeded order
	ladderK int
}

func setupRewrite(seed int64, sz sizing, _ string) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	ts, err := stencilTargets(sz.Small[0], sz.Small[1])
	if err != nil {
		return nil, err
	}
	for _, mk := range []func() (*target, error){
		func() (*target, error) { return pgasTarget(false) },
		func() (*target, error) { return pgasTarget(true) },
		x2Target,
	} {
		t, err := mk()
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	for _, gs := range corpusSeeds[:sz.Corpus] {
		t, err := generatedTarget(gs, r)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	in := &rewriteInst{targets: ts, ladderK: sz.LadderK}
	var scratch emuMeter
	for _, t := range ts {
		if t.window, err = guestCode(t.m); err != nil {
			return nil, err
		}
		if t.origCycles == 0 {
			if t.origCycles, err = t.check(t.fn, &scratch); err != nil {
				return nil, fmt.Errorf("%s: original fails its own check: %w", t.name, err)
			}
		}
		for _, e := range []brew.Effort{brew.EffortFull, brew.EffortQuick} {
			in.ops = append(in.ops, rewriteOp{t, e, t.request(e)})
		}
	}
	r.Shuffle(len(in.ops), func(i, j int) { in.ops[i], in.ops[j] = in.ops[j], in.ops[i] })
	return in, nil
}

func (in *rewriteInst) close() {}

func (in *rewriteInst) pass(rec *recorder) *passStats {
	p := &passStats{det: map[string]float64{}}
	outs := make([]*brew.Outcome, len(in.ops))
	spans := make([]int, len(in.ops))
	m0 := mallocs()
	t0 := time.Now()
	for i, op := range in.ops {
		root := rec.begin(0, i+1, opLayer, "rewrite")
		spans[i] = rec.begin(root, i+1, "brew", "Do."+op.effort.String())
		s0 := time.Now()
		out, err := brew.Do(op.t.m, op.req)
		p.lat = append(p.lat, int64(time.Since(s0)))
		rec.end(spans[i])
		rec.end(root)
		p.ops++
		switch {
		case err != nil:
			p.fail("%s %s: %v", op.t.name, op.effort, err)
		case out.Degraded:
			p.fail("%s %s: degraded: %s", op.t.name, op.effort, out.Reason)
		default:
			outs[i] = out
		}
	}
	p.wall = time.Since(t0)
	p.mallocs = mallocs() - m0

	// Check phase: call every produced address against its reference,
	// then release it so the next pass starts from the same JIT state.
	var ratios, genRatios []float64
	sum := map[string]float64{}
	for i, op := range in.ops {
		out := outs[i]
		if out == nil {
			continue
		}
		if i < in.ladderK {
			rec.ladder(spans[i], isaRungs(op.t.m, op.t.window, out.Result))
		}
		res := out.Result
		cycles, err := op.t.check(out.Addr, &p.emu)
		if err != nil {
			p.fail("%s %s: %v", op.t.name, op.effort, err)
		}
		ratio := float64(cycles) / float64(op.t.origCycles)
		ratios = append(ratios, ratio)
		if op.t.paper {
			p.rows = append(p.rows, fmt.Sprintf("%s %s: %d/%d cycles = %.3f, %d bytes, %d traced",
				op.t.name, op.effort, cycles, op.t.origCycles, ratio, res.CodeSize, res.TracedInstrs))
		} else {
			genRatios = append(genRatios, ratio)
		}
		sum["spec_code_bytes"] += float64(res.CodeSize)
		sum["brew.traced_instrs"] += float64(res.TracedInstrs)
		sum["brew.emitted_bytes"] += float64(res.CodeSize)
		sum["brew.blocks"] += float64(res.Blocks)
		if rep := res.Report; rep != nil {
			sum["brew.kept"] += float64(rep.Kept)
			sum["brew.elided"] += float64(rep.Elided)
			sum["brew.folded"] += float64(rep.Folded)
			sum["brew.inlined"] += float64(rep.Inlined)
			sum["class_total"] += float64(rep.ClassTotal())
		}
		if err := op.t.m.FreeJIT(out.Addr); err != nil {
			p.fail("%s %s: FreeJIT: %v", op.t.name, op.effort, err)
		}
	}
	sort.Strings(p.rows)
	p.rows = append(p.rows, fmt.Sprintf("generated programs: geomean %.3f over %d specializations", geomean(genRatios), len(genRatios)))
	for k, v := range sum {
		p.det[k] = v
	}
	if ct := sum["class_total"]; ct > 0 {
		p.det["brew.elided_share"] = (sum["brew.elided"] + sum["brew.folded"]) / ct
	}
	p.det["brew.degraded_share"] = float64(p.ops-len(ratios)) / float64(p.ops)
	p.det["spec_cycle_ratio"] = geomean(ratios)
	return p
}

// isaRungs replays one finished rewrite one layer down, on the same
// (idle) machine: the tracer's decode work — one isa.Decode per traced
// instruction, cycling over the guest code window it read — with the
// encoding of the emitted body and its vm.InstallJIT as siblings.
func isaRungs(m *vm.Machine, window []isa.Instr, res *brew.Result) []rung {
	code, err := m.Mem.ReadBytes(res.Addr, res.CodeSize)
	if err != nil || len(window) == 0 {
		return nil
	}
	code = append([]byte(nil), code...)
	first, last := window[0], window[len(window)-1]
	raw, err := m.Mem.ReadBytes(first.Addr, int(last.Addr-first.Addr)+last.Len)
	if err != nil {
		return nil
	}
	t0 := time.Now()
	for i := 0; i < res.TracedInstrs; i++ {
		in := window[i%len(window)]
		_, _ = isa.Decode(raw[in.Addr-first.Addr:], in.Addr)
	}
	decode := time.Since(t0)

	emitted, _ := isa.DecodeAll(code, res.Addr)
	t0 = time.Now()
	var buf []byte
	for _, in := range emitted {
		buf, _ = isa.AppendEncode(buf, in)
	}
	encode := time.Since(t0)

	t0 = time.Now()
	addr, err := m.InstallJIT(len(code), func(uint64) ([]byte, error) { return code, nil })
	install := time.Since(t0)
	if err == nil {
		_ = m.FreeJIT(addr) // scratch copy; the allocator is back where it was
	}
	return []rung{{Layer: "isa", Name: "Decode x traced", NS: int64(decode), Siblings: []rung{
		{Layer: "isa", Name: "AppendEncode emitted", NS: int64(encode)},
		{Layer: "vm", Name: "InstallJIT", NS: int64(install)},
	}}}
}
