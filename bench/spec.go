package main

// The benchmark's vocabulary: workloads, end-to-end metrics and the
// per-layer ledger. BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds for the driver; spec_test.go keeps
// the two in step. README.md explains why each entry exists.

// metricDef defines one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening -compare tolerates before it says
	// "worse". Deterministic metrics ignore it: they must match exactly.
	Bound float64
	// Floor is an absolute worsening that must also be exceeded (the
	// "10 % and > 0.05 s" rule); 0 means the relative bound alone decides.
	Floor float64
	// Det marks an emulated, deterministic quantity: same seed, same value,
	// bit for bit.
	Det bool
	// Layer is the package a per-layer metric belongs to ("" end to end).
	Layer string
}

// workloadDef names one workload; Why is the one-line reason it exists.
type workloadDef struct {
	Name    string
	Clients int
	Why     string
}

var workloads = []workloadDef{
	{"stencil-steady", 1, "paper Section V sweeps, all rewrites done in setup: emulator-bound (vm, cache, mem, isa fetch); a rewriter change must not move it"},
	{"rewrite-corpus", 1, "one brew.Do per op over stencil, pgas, call-chain and generated programs at both efforts: rewriter-bound (brew, isa decode/encode); emulator idle while timed"},
	{"serve-warm", 2, "Service.Do cache hits on a fully specialized 99-key population, Zipf(1.1) keys, 2 clients: the lock-free read side of brewsvc; rewriter and emulator idle"},
	{"churn-restart", 1, "restart rounds over a shared store with 4x more keys than live slots: hit, store-adopt, fresh trace, eviction and deopt interleave (spstore, specmgr, brewsvc miss path, vm install-then-execute)"},
}

// hostBound is the bound of the host-timed end-to-end metrics. The issue
// asked for a tenth; across ten quiet runs on the 2-vCPU host their
// quartile spread reaches 4.5 % of the median (README.md, "Steadiness"),
// and a bound has to be three times the spread to mean anything.
const hostBound = 0.15

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; failed_share is reported beside them (and as the driver's
// failed/attempted counts) because it is 0 on a healthy commit.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: hostBound},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: hostBound},
	{Name: "emu_mips", Unit: "Minstr/s", Better: "higher", Bound: hostBound},
	{Name: "spec_cycle_ratio", Unit: "ratio", Better: "lower", Bound: 0.02, Det: true},
	{Name: "spec_code_bytes", Unit: "bytes", Better: "lower", Bound: 0.02, Det: true},
	{Name: "allocs_per_op", Unit: "allocs", Better: "lower", Bound: 0.10, Floor: 1},
}

// failedShare is the eighth end-to-end number; any increase is a regression.
var failedShare = metricDef{Name: "failed_share", Unit: "share", Better: "lower", Det: true}

func host(layer, name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: 0.10, Layer: layer}
}

func det(layer, name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Det: true, Layer: layer}
}

// perLayer is the ledger of single-layer numbers, taken in the traced run.
// Host timings come from probes that time exported calls on fixed inputs
// (the same in every workload's run); counters are read over the first
// timed pass of the workload that ran.
var perLayer = []metricDef{
	host("isa", "isa.decode_ns_per_instr", "ns", "lower"),
	host("isa", "isa.encode_ns_per_instr", "ns", "lower"),
	det("isa", "isa.decoded_instrs", "instrs", "lower"),

	host("mem", "mem.rw_ns_per_word", "ns", "lower"),

	host("cache", "cache.access_ns", "ns", "lower"),
	det("cache", "cache.l1_hit_rate_small", "share", "higher"),
	det("cache", "cache.l2_hit_rate_small", "share", "higher"),
	det("cache", "cache.l3_hit_rate_small", "share", "higher"),
	det("cache", "cache.l1_hit_rate_large", "share", "higher"),
	det("cache", "cache.l2_hit_rate_large", "share", "higher"),
	det("cache", "cache.l3_hit_rate_large", "share", "higher"),

	host("vm", "vm.ns_per_instr", "ns", "lower"),
	host("vm", "vm.ns_per_instr_nocache", "ns", "lower"),
	host("vm", "vm.install_jit_us", "us", "lower"),
	host("vm", "vm.free_jit_us", "us", "lower"),
	host("vm", "vm.first_call_penalty_us", "us", "lower"),
	host("vm", "vm.new_ms", "ms", "lower"),
	host("vm", "vm.call_busy_s", "s", "lower"),
	det("vm", "vm.instructions", "instrs", "lower"),
	det("vm", "vm.cycles", "cycles", "lower"),
	det("vm", "vm.cpi", "ratio", "lower"),

	host("minc", "minc.compile_ms", "ms", "lower"),
	det("minc", "minc.code_bytes", "bytes", "lower"),

	host("brew", "brew.do_full_p50_us", "us", "lower"),
	host("brew", "brew.do_quick_p50_us", "us", "lower"),
	host("brew", "brew.do_full_tail_us", "us", "lower"),
	host("brew", "brew.guarded_do_p50_us", "us", "lower"),
	host("brew", "brew.ns_per_traced_instr", "ns", "lower"),
	host("brew", "brew.allocs_per_do", "allocs", "lower"),
	host("brew", "brew.alloc_kb_per_do", "KB", "lower"),
	det("brew", "brew.traced_instrs", "instrs", "lower"),
	det("brew", "brew.emitted_bytes", "bytes", "lower"),
	det("brew", "brew.blocks", "count", "lower"),
	det("brew", "brew.kept", "instrs", "lower"),
	det("brew", "brew.elided", "instrs", "higher"),
	det("brew", "brew.folded", "instrs", "higher"),
	det("brew", "brew.inlined", "instrs", "higher"),
	det("brew", "brew.elided_share", "share", "higher"),
	det("brew", "brew.degraded_share", "share", "lower"),

	host("specmgr", "specmgr.specialize_p50_us", "us", "lower"),
	host("specmgr", "specmgr.install_variant_p50_us", "us", "lower"),
	host("specmgr", "specmgr.deopt_us", "us", "lower"),
	det("specmgr", "specmgr.dispatch_cycles", "cycles", "lower"),
	det("specmgr", "specmgr.variant_evictions", "count", "lower"),
	det("specmgr", "specmgr.deopts", "count", "lower"),

	host("brewsvc", "brewsvc.submit_hit_p50_ns", "ns", "lower"),
	host("brewsvc", "brewsvc.submit_hit_tail_ns", "ns", "lower"),
	host("brewsvc", "brewsvc.submit_miss_p50_us", "us", "lower"),
	host("brewsvc", "brewsvc.submit_adopt_p50_us", "us", "lower"),
	host("brewsvc", "brewsvc.self_miss_us", "us", "lower"),
	host("brewsvc", "brewsvc.batch_ns_per_req", "ns", "lower"),
	host("brewsvc", "brewsvc.open_close_ms", "ms", "lower"),
	det("brewsvc", "brewsvc.hit_ratio", "share", "higher"),
	det("brewsvc", "brewsvc.traces", "count", "lower"),
	det("brewsvc", "brewsvc.coalesce_hits", "count", "higher"),
	det("brewsvc", "brewsvc.evictions", "count", "lower"),
	det("brewsvc", "brewsvc.degraded", "count", "lower"),
	det("brewsvc", "brewsvc.sheds", "count", "lower"),

	host("spstore", "spstore.put_p50_us", "us", "lower"),
	host("spstore", "spstore.adopt_p50_us", "us", "lower"),
	host("spstore", "spstore.get_p50_us", "us", "lower"),
	host("spstore", "spstore.open_ms", "ms", "lower"),
	host("spstore", "spstore.reval_share", "share", "lower"),
	det("spstore", "spstore.adopt_ratio", "share", "higher"),
	det("spstore", "spstore.warm_hits", "count", "higher"),
	det("spstore", "spstore.reval_fails", "count", "lower"),
	det("spstore", "spstore.quarantined", "count", "lower"),
	det("spstore", "spstore.record_bytes", "bytes", "lower"),

	host("obs", "obs.enabled_submit_overhead_ns", "ns", "lower"),

	host("bench", "bench.trace_overhead_pct", "%", "lower"),
	host("bench", "bench.unattributed_pct", "%", "lower"),
}

// metricByName finds a definition among the end-to-end metrics,
// failed_share and the per-layer ledger.
func metricByName(name string) (metricDef, bool) {
	if name == failedShare.Name {
		return failedShare, true
	}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// paperRatios are the published stencil runtimes relative to E1a (paper
// Section V; EXPERIMENTS.md), printed beside the measured cycle ratios.
var paperRatios = map[string]float64{
	"E1b": 0.37,
	"E1c": 0.44,
	"E2a": 1.10,
	"E2b": 0.37,
	"E3a": 0.24,
}
