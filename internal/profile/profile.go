// Package profile implements the value-profiling support the paper's
// Section III.D builds guarded specialization on: observe the arguments a
// function is called with, find stable values, and feed them to brew.Do
// as Request.Guards.
package profile

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Collector observes calls to selected functions through the machine's
// call hook and histograms their integer arguments.
type Collector struct {
	watch  map[uint64]*FuncProfile
	prev   func(uint64, *vm.CPU)
	limit  int
	closed bool
	m      *vm.Machine
}

// FuncProfile accumulates per-parameter value histograms for one function.
type FuncProfile struct {
	Addr    uint64
	Calls   uint64
	nparams int
	params  [len(isa.IntArgRegs)]map[uint64]uint64
}

// NewCollector attaches a collector to the machine. Watch at most
// maxValues distinct values per parameter (further values are dropped to
// bound memory; they still count towards Calls).
func NewCollector(m *vm.Machine, maxValues int) *Collector {
	if maxValues <= 0 {
		maxValues = 64
	}
	c := &Collector{
		watch: make(map[uint64]*FuncProfile),
		limit: maxValues,
		prev:  m.OnCall,
		m:     m,
	}
	m.OnCall = func(target uint64, cpu *vm.CPU) {
		if c.prev != nil {
			c.prev(target, cpu)
		}
		c.observe(target, cpu)
	}
	return c
}

// Watch starts profiling calls to fn, histogramming its first nparams
// integer parameters (the binary alone does not reveal arity, so the
// caller provides it; values outside 1..6 are clamped).
func (c *Collector) Watch(fn uint64, nparams int) *FuncProfile {
	if nparams < 1 {
		nparams = 1
	}
	if nparams > len(isa.IntArgRegs) {
		nparams = len(isa.IntArgRegs)
	}
	p, ok := c.watch[fn]
	if !ok {
		p = &FuncProfile{Addr: fn, nparams: nparams}
		for i := 0; i < nparams; i++ {
			p.params[i] = make(map[uint64]uint64)
		}
		c.watch[fn] = p
	}
	return p
}

// Detach restores the machine's previous call hook.
func (c *Collector) Detach() {
	if !c.closed {
		c.m.OnCall = c.prev
		c.closed = true
	}
}

func (c *Collector) observe(target uint64, cpu *vm.CPU) {
	p, ok := c.watch[target]
	if !ok {
		return
	}
	p.Calls++
	for i := 0; i < p.nparams; i++ {
		v := cpu.R[isa.IntArgRegs[i]]
		h := p.params[i]
		if _, seen := h[v]; seen || len(h) < c.limit {
			h[v]++
		}
	}
}

// ValueFreq is one observed value with its frequency.
type ValueFreq struct {
	Value uint64
	Count uint64
}

// Hot returns the most frequent value of parameter i (1-based) and the
// fraction of profiled calls it covers.
func (p *FuncProfile) Hot(i int) (ValueFreq, float64) {
	if i < 1 || i > len(p.params) || p.Calls == 0 {
		return ValueFreq{}, 0
	}
	var best ValueFreq
	for v, n := range p.params[i-1] {
		if n > best.Count || (n == best.Count && v < best.Value) {
			best = ValueFreq{Value: v, Count: n}
		}
	}
	return best, float64(best.Count) / float64(p.Calls)
}

// Top returns the n most frequent values of parameter i (1-based).
func (p *FuncProfile) Top(i, n int) []ValueFreq {
	if i < 1 || i > len(p.params) {
		return nil
	}
	var out []ValueFreq
	for v, cnt := range p.params[i-1] {
		out = append(out, ValueFreq{Value: v, Count: cnt})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// StableParams returns the 1-based indices of parameters whose hottest
// value covers at least threshold of all profiled calls; the natural
// guard set for a guarded brew.Do (Request.Guards).
func (p *FuncProfile) StableParams(threshold float64) []int {
	var out []int
	for i := 1; i <= p.nparams; i++ {
		if _, frac := p.Hot(i); frac >= threshold && len(p.params[i-1]) > 0 {
			out = append(out, i)
		}
	}
	return out
}
