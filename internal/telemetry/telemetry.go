// Package telemetry is a process-wide metrics registry for the BREW-Go
// pipeline: counters, gauges and histograms with atomic updates, designed
// so that the disabled path costs one atomic load and zero allocations.
// Instrumented packages (vm, cache, brew, pgas) hold *Counter handles and
// call Add/Inc unconditionally; until Enable() is called every update is a
// no-op, so the emulator hot path and the rewriter stay at their
// uninstrumented cost. Snapshots are deterministic: instruments are
// reported in sorted name order so two identical runs render
// byte-identical text and JSON.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates every instrument update. Package-level (not per-registry)
// so the hot-path check is a single atomic load with no pointer chase.
var enabled atomic.Bool

// Enable turns on metric collection process-wide.
func Enable() { enabled.Store(true) }

// Disable turns off metric collection. Already-recorded values remain
// readable; new updates are dropped.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter by n. No-op (and allocation-free) when the
// counter is nil or collection is disabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins int64 metric.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records the gauge value. No-op when nil or disabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits; one implicit overflow bucket catches everything above the
// last bound.
type Histogram struct {
	name    string
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one sample. No-op when nil or disabled.
func (h *Histogram) Observe(v uint64) {
	if h == nil || !enabled.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns the q-th quantile (0 < q <= 1) of the recorded
// samples by exact rank arithmetic over the bucket counts: the rank
// ceil(q*count) sample's bucket is located exactly, and its inclusive
// upper bound is returned (the bucket's resolution is the only
// approximation). The overflow bucket reports the last finite bound.
// Returns 0 with no samples. Allocation-free whether collection is
// enabled or disabled: it reads the live bucket atomics directly and
// never snapshots.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) || rank == 0 {
		rank++ // ceil, and quantiles are 1-based ranks
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	// Overflow bucket (or racing writers): report the largest finite bound.
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// ExponentialBounds returns count bucket upper bounds for Histogram
// creation: the first is start, each subsequent bound is the previous
// multiplied by factor (rounded, and always strictly increasing).
// ExponentialBounds(100, 2, 8) = 100, 200, 400, ... 12800.
func ExponentialBounds(start uint64, factor float64, count int) []uint64 {
	if start == 0 {
		start = 1
	}
	out := make([]uint64, 0, count)
	cur := start
	for i := 0; i < count; i++ {
		out = append(out, cur)
		next := uint64(float64(cur)*factor + 0.5)
		if next <= cur {
			next = cur + 1
		}
		cur = next
	}
	return out
}

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry owns a namespace of instruments. Instrument lookup/creation
// takes a mutex; the returned handles update lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the built-in instrumentation
// (vm, cache, brew, pgas) registers into.
var Default = NewRegistry()

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds (sorted ascending) if needed. Bounds are
// fixed at creation; later calls with different bounds return the
// original instrument.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := append([]uint64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{name: name, bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument's recorded values. Handles stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	UpperBound uint64 `json:"upper_bound"` // 0 with Overflow=true for the +Inf bucket
	Overflow   bool   `json:"overflow,omitempty"`
	Count      uint64 `json:"count"`
}

// Metric is one instrument's state in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter" | "gauge" | "histogram"
	Value   uint64   `json:"value,omitempty"`
	Gauge   int64    `json:"gauge,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	P50     uint64   `json:"p50,omitempty"`
	P99     uint64   `json:"p99,omitempty"`
	P999    uint64   `json:"p999,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-th quantile of a histogram metric by the same
// exact rank arithmetic as Histogram.Quantile, over the snapshot's
// bucket counts (0 for non-histograms or empty histograms).
func (m Metric) Quantile(q float64) uint64 {
	if m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(m.Count))
	if float64(rank) < q*float64(m.Count) || rank == 0 {
		rank++
	}
	if rank > m.Count {
		rank = m.Count
	}
	var seen, lastFinite uint64
	for _, b := range m.Buckets {
		if !b.Overflow {
			lastFinite = b.UpperBound
		}
		seen += b.Count
		if seen >= rank {
			if b.Overflow {
				break
			}
			return b.UpperBound
		}
	}
	return lastFinite
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name
// (counters, gauges and histograms interleaved in one order).
type Snapshot []Metric

// Snapshot copies the registry's current state. The result is
// deterministic: sorted by name, value types fixed per kind.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.v.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Gauge: g.v.Load()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: "histogram", Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			b := Bucket{Count: h.buckets[i].Load()}
			if i < len(h.bounds) {
				b.UpperBound = h.bounds[i]
			} else {
				b.Overflow = true
			}
			m.Buckets = append(m.Buckets, b)
		}
		m.P50, m.P99, m.P999 = m.Quantile(0.50), m.Quantile(0.99), m.Quantile(0.999)
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Text renders the snapshot as one "name kind value" line per metric.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, m := range s {
		switch m.Kind {
		case "counter":
			fmt.Fprintf(&b, "%-44s counter   %d\n", m.Name, m.Value)
		case "gauge":
			fmt.Fprintf(&b, "%-44s gauge     %d\n", m.Name, m.Gauge)
		case "histogram":
			fmt.Fprintf(&b, "%-44s histogram count=%d sum=%d", m.Name, m.Count, m.Sum)
			if m.Count > 0 {
				fmt.Fprintf(&b, " p50=%d p99=%d p999=%d", m.P50, m.P99, m.P999)
			}
			for _, bk := range m.Buckets {
				if bk.Overflow {
					fmt.Fprintf(&b, " le(+inf)=%d", bk.Count)
				} else {
					fmt.Fprintf(&b, " le(%d)=%d", bk.UpperBound, bk.Count)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
