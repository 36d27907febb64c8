package vm

import (
	"fmt"
	"sort"
	"strings"
)

// Profiler is a sampling profiler for the simulated machine: every
// Interval emulated cycles it records the current PC together with a walk
// of the simulated call stack (maintained as a shadow stack of call
// targets, so sampling never touches simulated memory). Samples are
// symbolized at capture time through the Symbolize hook — typically
// (*minc.LineTable).Lookup — and aggregated into folded (flamegraph)
// stacks and per-function/per-line leaf counts.
//
// The profiler only costs anything when attached: detached, it is one of
// the hooks behind the instruction loop's single armed check.
type Profiler struct {
	// Interval is the sampling period in emulated cycles.
	Interval uint64
	// Symbolize maps a simulated PC to a function name and source line.
	// PCs it rejects (e.g. rewritten JIT code) render as hex addresses.
	Symbolize func(pc uint64) (fn string, line int, ok bool)
	// OnSample, when non-nil, observes every raw sample PC before
	// aggregation. brewsvc attaches its hotness accounting here: samples
	// landing in tier-0 specialized code feed the promotion counter. The
	// hook runs on the emulation goroutine and must be cheap and must not
	// drive emulated execution.
	OnSample func(pc uint64)

	nextAt uint64
	stack  []uint64 // call targets of the active simulated frames, outermost first

	total  uint64
	folded map[string]uint64
	fns    map[string]uint64
	lines  map[lineKey]uint64
}

type lineKey struct {
	fn   string
	line int
}

// NewProfiler returns a profiler sampling every interval cycles.
func NewProfiler(interval uint64, symbolize func(pc uint64) (string, int, bool)) *Profiler {
	if interval == 0 {
		interval = 10_000
	}
	return &Profiler{
		Interval:  interval,
		Symbolize: symbolize,
		folded:    map[string]uint64{},
		fns:       map[string]uint64{},
		lines:     map[lineKey]uint64{},
	}
}

// AttachProfiler starts sampling on this machine. Passing nil detaches.
func (m *Machine) AttachProfiler(p *Profiler) {
	m.Prof = p
	if p != nil {
		p.nextAt = m.Stats.Cycles + p.Interval
	}
}

func (p *Profiler) name(pc uint64) (string, int) {
	if p.Symbolize != nil {
		if fn, line, ok := p.Symbolize(pc); ok {
			return fn, line
		}
	}
	return fmt.Sprintf("0x%x", pc), 0
}

func (p *Profiler) pushCall(target uint64) { p.stack = append(p.stack, target) }

func (p *Profiler) popCall() {
	// Tolerate an empty shadow stack: the RET of a top-level call returns
	// to the HALT stub without a matching simulated CALL.
	if n := len(p.stack); n > 0 {
		p.stack = p.stack[:n-1]
	}
}

func (p *Profiler) sample(cycles, pc uint64) {
	p.total++
	if p.OnSample != nil {
		p.OnSample(pc)
	}
	fn, line := p.name(pc)
	// The innermost shadow-stack entry is the function the PC is in; the
	// leaf frame comes from the PC itself, so walk only the callers.
	callers := p.stack
	if n := len(callers); n > 0 {
		callers = callers[:n-1]
	}
	var b strings.Builder
	for _, target := range callers {
		callerFn, _ := p.name(target)
		b.WriteString(callerFn)
		b.WriteByte(';')
	}
	b.WriteString(fn)
	p.folded[b.String()]++
	p.fns[fn]++
	p.lines[lineKey{fn, line}]++
	// Re-arm on the interval grid so long instructions (cache misses) do
	// not drift the sampling phase.
	p.nextAt = cycles - cycles%p.Interval + p.Interval
}

// TotalSamples returns the number of samples recorded.
func (p *Profiler) TotalSamples() uint64 { return p.total }

// FoldedStacks renders the samples in Brendan-Gregg folded format
// ("outer;inner count" per line), sorted by stack for determinism.
func (p *Profiler) FoldedStacks() string {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, p.folded[k])
	}
	return b.String()
}

// LineSamples is one source line's sample count within a function.
type LineSamples struct {
	Line    int    `json:"line"`
	Samples uint64 `json:"samples"`
}

// FuncSamples aggregates the samples whose leaf frame was one function.
type FuncSamples struct {
	Name    string        `json:"name"`
	Samples uint64        `json:"samples"`
	Lines   []LineSamples `json:"lines,omitempty"`
}

// Top returns the n hottest leaf functions (by samples, name as
// tie-break), each with its per-line breakdown sorted hottest-first.
func (p *Profiler) Top(n int) []FuncSamples {
	out := make([]FuncSamples, 0, len(p.fns))
	for fn, c := range p.fns {
		out = append(out, FuncSamples{Name: fn, Samples: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	for i := range out {
		for k, c := range p.lines {
			if k.fn == out[i].Name {
				out[i].Lines = append(out[i].Lines, LineSamples{Line: k.line, Samples: c})
			}
		}
		ls := out[i].Lines
		sort.Slice(ls, func(a, b int) bool {
			if ls[a].Samples != ls[b].Samples {
				return ls[a].Samples > ls[b].Samples
			}
			return ls[a].Line < ls[b].Line
		})
	}
	return out
}

// RenderTop formats Top(n) as an aligned text table.
func (p *Profiler) RenderTop(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "samples total: %d (interval %d cycles)\n", p.total, p.Interval)
	for _, f := range p.Top(n) {
		pct := 0.0
		if p.total > 0 {
			pct = 100 * float64(f.Samples) / float64(p.total)
		}
		fmt.Fprintf(&b, "%8d  %5.1f%%  %s\n", f.Samples, pct, f.Name)
		for _, l := range f.Lines {
			if l.Line > 0 {
				fmt.Fprintf(&b, "%8s         line %d: %d\n", "", l.Line, l.Samples)
			}
		}
	}
	return b.String()
}
