package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/vm"
)

// sizing fixes how much work one pass of each workload does. The full
// sizing is frozen (README.md, "Sizing"); smoke shrinks everything so the
// tests can run all four workloads in a few seconds.
type sizing struct {
	Small, Large [2]int  // stencil grids (xs, ys): L1/L2-resident and L3-only
	SmallReps    int     // small-grid round-robins per pass (the large grid runs one)
	Corpus       int     // generated programs in the rewrite corpus
	FleetFns     int     // minc fleet functions; keys = 2 guard values each, plus 3 stencil kernels
	ServeOps     int     // ops per client per pass
	ChurnOps     int     // ops per restart round
	ChurnLive    int     // live specialization slots in a round (the population is 4x this)
	DeoptEvery   int     // every n-th churn op writes a frozen coefficient
	Setups       int     // fewest setups per run; setup_s is their median
	MaxSetups    int     // set-up repeats up to here while setupBudget lasts
	Seconds      float64 // default length of the timed passes (BENCHMARK.json's run_seconds)
	LadderK      int     // requests replayed down the ladder in a traced run
	ProbeReps    int     // repetitions of each layer probe
}

var fullSizing = sizing{
	Small: [2]int{64, 48}, Large: [2]int{192, 144}, SmallReps: 2,
	Corpus: 40, FleetFns: 48, ServeOps: 200_000,
	ChurnOps: 600, ChurnLive: 24, DeoptEvery: 50,
	Setups: 3, MaxSetups: 8, Seconds: 16, LadderK: 200, ProbeReps: 200,
}

var smokeSizing = sizing{
	Small: [2]int{16, 12}, Large: [2]int{24, 16}, SmallReps: 1,
	Corpus: 3, FleetFns: 8, ServeOps: 2_000,
	ChurnOps: 60, ChurnLive: 4, DeoptEvery: 20,
	Setups: 2, MaxSetups: 2, Seconds: 0.2, LadderK: 10, ProbeReps: 5,
}

// setupBudget is how long set-up keeps repeating past sizing.Setups (up to
// sizing.MaxSetups instances).
const setupBudget = time.Second

// minPasses is the fewest timed passes a run makes, however slow the host.
const minPasses = 2

// gcHeadroom is how much garbage the timed passes may pile up before the
// collector must run (see runWorkload).
const gcHeadroom = 512 << 20

// passStats is what one timed pass (a fixed op count, closed loop) plus
// its untimed check measured.
type passStats struct {
	ops, failed int
	wall        time.Duration // the timed ops only
	lat         []int64       // sampled per-op latencies, ns
	mallocs     uint64        // runtime mallocs over the timed ops
	emu         emuMeter      // emulation inside Machine.Call*, timed and check phases
	timed       emuMeter      // the part of emu inside the timed ops
	// det holds the pass's deterministic numbers: the per-layer counters
	// (by ledger name), spec_cycle_ratio and spec_code_bytes, and anything
	// else that must repeat exactly for the same seed.
	det map[string]float64
	// rows are per-function ratio lines printed beside spec_cycle_ratio.
	rows  []string
	fails []string
	// notes are remarks on the pass that are not failures.
	notes []string
}

func (p *passStats) fail(format string, args ...any) {
	p.failed++
	if len(p.fails) < 5 {
		p.fails = append(p.fails, fmt.Sprintf(format, args...))
	}
}

// runPass runs one pass and adds the vm counter rows every workload
// derives the same way: emulated work inside the timed ops.
func runPass(in instance, rec *recorder) *passStats {
	p := in.pass(rec)
	p.det["vm.instructions"] = float64(p.timed.instr)
	p.det["vm.cycles"] = float64(p.timed.cycles)
	if p.timed.instr > 0 {
		p.det["vm.cpi"] = float64(p.timed.cycles) / float64(p.timed.instr)
	}
	return p
}

// instance is one set-up workload.
type instance interface {
	// pass runs the workload's fixed op count once, timed, then its check.
	// rec is nil with tracing off.
	pass(rec *recorder) *passStats
	close()
}

// setupFunc builds an instance from the seed. dir is a scratch directory
// inside the checkout for workloads that need the filesystem.
type setupFunc func(seed int64, sz sizing, dir string) (instance, error)

var setups = map[string]setupFunc{
	"stencil-steady": setupStencil,
	"rewrite-corpus": setupRewrite,
	"serve-warm":     setupServe,
	"churn-restart":  setupChurn,
}

// emuMeter accumulates emulated work and the host time spent inside
// Machine.Call*.
type emuMeter struct {
	ns            int64
	instr, cycles uint64
}

// run times f, which must do nothing but call into m's emulator.
func (e *emuMeter) run(m *vm.Machine, f func() error) error {
	i0, c0 := m.Stats.Instructions, m.Stats.Cycles
	t0 := time.Now()
	err := f()
	e.ns += int64(time.Since(t0))
	e.instr += m.Stats.Instructions - i0
	e.cycles += m.Stats.Cycles - c0
	return err
}

func (e *emuMeter) add(o emuMeter) {
	e.ns += o.ns
	e.instr += o.instr
	e.cycles += o.cycles
}

func (e emuMeter) mips() float64 {
	if e.ns == 0 {
		return 0
	}
	return float64(e.instr) / (float64(e.ns) / 1e9) / 1e6
}

// mallocs reads the runtime's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// metricValue is one reported number. Host metrics carry the quartiles of
// their per-pass values; deterministic ones have Q1 = Q3 = Median.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"` // "host" or "det"
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// hostValue is the named host metric over its per-pass values.
func hostValue(name string, perPass []float64) metricValue {
	def, _ := metricByName(name)
	s := summarize(perPass)
	return metricValue{Value: s.Median, Unit: def.Unit, Kind: "host", Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// pointValue is the named metric measured once.
func pointValue(name string, v float64) metricValue {
	def, _ := metricByName(name)
	kind := "host"
	if def.Det {
		kind = "det"
	}
	return metricValue{Value: v, Unit: def.Unit, Kind: kind, Q1: v, Q3: v, N: 1}
}

// wlResult is one workload's results.
type wlResult struct {
	Workload  string                 `json:"workload"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Passes    int                    `json:"passes"`
	Samples   int                    `json:"latency_samples"`
	TailPct   float64                `json:"latency_tail_pct"`
	TailUS    float64                `json:"latency_tail_us"`
	DetOK     bool                   `json:"determinism_ok"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
	Rows      []string               `json:"ratio_rows,omitempty"`
	Fails     []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *wlResult) correct() bool { return r.Failed == 0 && r.DetOK }

// runOpts selects how one workload is run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizing
	outDir  string
	text    io.Writer
}

// runWorkload performs the run shape every workload shares: set up
// (several times; setup_s is the median), a determinism self-check on a
// second instance, then GC and the timed passes with their checks.
func runWorkload(name string, o runOpts) (*wlResult, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	res := &wlResult{Workload: name, Metrics: map[string]metricValue{}, DetOK: true}
	fmt.Fprintf(o.text, "== %s (seed %d)\n", name, o.seed)

	// Set up at least Setups times, and more while set-up is cheap, so the
	// median is steady. Every instance stays alive until the run ends: a
	// freed machine's 83 MB would be handed to the next vm.New to zero,
	// and later setups would time the allocator, not the set-up. The last
	// instance is measured; the first runs the single pass whose
	// deterministic rows the measured one's first pass must reproduce.
	var setupS []float64
	var insts []instance
	defer func() {
		for _, in := range insts {
			in.close()
		}
	}()
	var total time.Duration
	for len(insts) < o.sz.Setups || (total < setupBudget && len(insts) < o.sz.MaxSetups) {
		dir, err := os.MkdirTemp(scratch, "inst-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err := setup(o.seed, o.sz, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		d := time.Since(t0)
		total += d
		setupS = append(setupS, d.Seconds())
		insts = append(insts, in)
	}
	res.Metrics["setup_s"] = hostValue("setup_s", setupS)
	twinDet := runPass(insts[0], nil).det
	inst := insts[len(insts)-1]

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	// The idle machines' address space counts as live heap, which would
	// push the next collection out by gigabytes; cap the garbage instead.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(ms.Sys-ms.HeapReleased) + gcHeadroom))

	var passes, traced []*passStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		// A traced run alternates untraced and traced passes so the
		// tracing overhead is measured inside the one process.
		if o.trace && n%2 == 1 {
			traced = append(traced, runPass(inst, rec))
			continue
		}
		passes = append(passes, runPass(inst, nil))
	}

	for _, d := range diffDet(twinDet, passes[0].det) {
		res.DetOK = false
		res.Fails = append(res.Fails, "determinism: "+d)
	}
	res.fill(passes)
	if o.trace {
		if err := res.fillLayers(name, passes, traced, rec, o); err != nil {
			return nil, err
		}
	}
	res.print(o.text, o.trace)
	return res, nil
}

// diffDet lists the deterministic rows that differ between two passes.
func diffDet(a, b map[string]float64) []string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || math.Float64bits(va) != math.Float64bits(vb) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, va, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing in first instance", k))
		}
	}
	sort.Strings(out)
	return out
}

// opsPerS is each pass's throughput over its timed ops.
func opsPerS(passes []*passStats) []float64 {
	out := make([]float64, 0, len(passes))
	for _, p := range passes {
		if p.wall > 0 {
			out = append(out, float64(p.ops)/p.wall.Seconds())
		}
	}
	return out
}

// fill derives the end-to-end metrics from the untraced passes.
func (r *wlResult) fill(passes []*passStats) {
	// Every pass holds the same op mix, so the median over passes of each
	// pass's median latency is the run's median op, with a spread.
	var mipsV, allocV, p50V []float64
	var lat []int64
	for _, p := range passes {
		r.Attempted += p.ops
		r.Failed += p.failed
		r.Fails = append(r.Fails, p.fails...)
		r.Notes = append(r.Notes, p.notes...)
		if v := p.emu.mips(); v > 0 {
			mipsV = append(mipsV, v)
		}
		if p.ops > 0 {
			allocV = append(allocV, float64(p.mallocs)/float64(p.ops))
		}
		p50V = append(p50V, p50(p.lat)/1e3)
		lat = append(lat, p.lat...)
	}
	r.Passes = len(passes)
	r.Samples = len(lat)
	sorted := sortedNS(lat)
	tailNS, pct := tail(sorted)
	r.TailPct, r.TailUS = pct, tailNS/1e3

	first := passes[0]
	r.Metrics["ops_per_s"] = hostValue("ops_per_s", opsPerS(passes))
	r.Metrics["op_p50_us"] = hostValue("op_p50_us", p50V)
	r.Metrics["emu_mips"] = hostValue("emu_mips", mipsV)
	r.Metrics["allocs_per_op"] = hostValue("allocs_per_op", allocV)
	r.Metrics["spec_cycle_ratio"] = pointValue("spec_cycle_ratio", first.det["spec_cycle_ratio"])
	r.Metrics["spec_code_bytes"] = pointValue("spec_code_bytes", first.det["spec_code_bytes"])
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics[failedShare.Name] = pointValue(failedShare.Name, share)
	r.Rows = first.rows
}

// print renders the workload's table.
func (r *wlResult) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "  passes %d  ops attempted %d  failed %d  determinism %v\n", r.Passes, r.Attempted, r.Failed, r.DetOK)
	printMetric := func(name string, mv metricValue) {
		if mv.Kind == "det" {
			fmt.Fprintf(w, "  %-34s %16.6g %-9s det\n", name, mv.Value, mv.Unit)
			return
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-9s host  q1 %.6g  q3 %.6g  n %d\n", name, mv.Value, mv.Unit, mv.Q1, mv.Q3, mv.N)
	}
	for _, d := range endToEnd {
		printMetric(d.Name, r.Metrics[d.Name])
	}
	printMetric(failedShare.Name, r.Metrics[failedShare.Name])
	fmt.Fprintf(w, "  op latency tail: p%g = %.3f us over %d samples\n", r.TailPct, r.TailUS, r.Samples)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "    %s\n", row)
	}
	if trace {
		for _, d := range perLayer {
			printMetric(d.Name, r.Layers[d.Name])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Fails {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
