// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of the rewriter sees, and — in a separate
// traced run — a per-layer ledger measured from outside each package.
// README.md describes the workloads, metrics and output files.
//
//	bash bench/run.sh                          all four workloads
//	bash bench/run.sh -trace 1                 traced run: per-layer ledger, out/trace-<workload>.json
//	bash bench/run.sh -compare a.json b.json   judge two results files against the bounds
//	bash bench/run.sh --workload serve-warm --seed 3 --seconds 16 --trace 0    one driver run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeed drives every run unless -seed says otherwise (README.md
// names the hold-out seed a PR that claims a gain must also report).
const defaultSeed = 1

// meta records what produced a results file.
type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizing     string  `json:"sizing"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	HostModel  string  `json:"host_model"`
}

func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func hostModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// driverLine is the one JSON object a driver run prints last.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics picks what the contract asks for: every end-to-end metric
// untraced, every per-layer metric traced.
func driverMetrics(r *wlResult, trace bool) (map[string]driverMetric, error) {
	defs, from := endToEnd, r.Metrics
	if trace {
		defs, from = perLayer, r.Layers
	}
	out := make(map[string]driverMetric, len(defs))
	for _, d := range defs {
		mv, ok := from[d.Name]
		if !ok || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s has no finite value", r.Workload, d.Name)
		}
		out[d.Name] = driverMetric{mv.Value, d.Unit}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all four) and print the driver's JSON line last")
	seed := fs.Int64("seed", defaultSeed, "workload seed: op order, key order, guard values, check arguments")
	seconds := fs.Float64("seconds", 0, "how long each workload's timed passes run (default: the sizing's, 16 for the full one)")
	trace := fs.Int("trace", 0, "1 = traced run: span recorder, ladder, layer probes; reports the per-layer ledger")
	smoke := fs.Bool("smoke", false, "tiny sizing of every workload (what the tests run)")
	outDir := fs.String("out", "out", "directory for results and traces, and scratch space")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		worse, err := runCompare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizing, outDir: *outDir, text: stdout}
	sizingName := "full"
	if *smoke {
		o.sz, sizingName = smokeSizing, "smoke"
	}
	if o.seconds <= 0 {
		o.seconds = o.sz.Seconds
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	rf := resultsFile{Meta: meta{Seed: *seed, Seconds: o.seconds, Sizing: sizingName, Trace: o.trace,
		Commit: buildCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), HostModel: hostModel()}}
	fmt.Fprintf(stdout, "bench: seed %d, %.3g s per workload, %s sizing, trace %v, commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n",
		rf.Meta.Seed, rf.Meta.Seconds, sizingName, o.trace, rf.Meta.Commit, rf.Meta.GoVersion, rf.Meta.GOMAXPROCS, rf.Meta.NProc, rf.Meta.HostModel)
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		rf.Workloads = append(rf.Workloads, res)
		ok = ok && res.correct()
	}

	file := "results.json"
	if o.trace {
		file = "results-trace.json"
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, file), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "results -> %s\n", filepath.Join(*outDir, file))

	if *workload != "" {
		res := rf.Workloads[0]
		metrics, err := driverMetrics(res, o.trace)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		line, err := json.Marshal(driverLine{res.correct(), res.Attempted, res.Failed, metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: an output differs from its reference or a deterministic row does not repeat")
		return 1
	}
	return 0
}
