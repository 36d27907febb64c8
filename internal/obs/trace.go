package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// maxExactSamples caps the raw-sample buffer of one (stage, tier) cell.
// Up to the cap quantiles are exact (computed over every recorded
// duration); past it the cell degrades to exponential-bucket rank
// quantiles so memory stays bounded under sustained load.
const maxExactSamples = 1 << 14

// stageBounds are the exponential nanosecond bucket bounds backing the
// past-cap fallback: 250ns doubling to ~8.4s (26 buckets).
var stageBounds = func() []uint64 {
	b := make([]uint64, 26)
	for i := range b {
		b[i] = 250 << i
	}
	return b
}()

// durStat aggregates one (stage, tier) cell: count/sum/max, exact raw
// samples up to maxExactSamples, and exponential bucket counts for the
// fallback. A plain mutex per cell: span completion is orders of
// magnitude rarer than the emulator hot path, and cells are per
// stage×tier so contention is spread.
type durStat struct {
	mu      sync.Mutex
	count   uint64
	sum     int64
	max     int64
	samples []int64
	buckets []uint64 // len(stageBounds)+1
}

func (c *durStat) observe(d int64) {
	c.mu.Lock()
	c.count++
	c.sum += d
	if d > c.max {
		c.max = d
	}
	if len(c.samples) < maxExactSamples {
		c.samples = append(c.samples, d)
	}
	if c.buckets == nil {
		c.buckets = make([]uint64, len(stageBounds)+1)
	}
	i := sort.Search(len(stageBounds), func(i int) bool { return uint64(d) <= stageBounds[i] })
	c.buckets[i]++
	c.mu.Unlock()
}

func (c *durStat) reset() {
	c.mu.Lock()
	c.count, c.sum, c.max = 0, 0, 0
	c.samples = nil
	c.buckets = nil
	c.mu.Unlock()
}

// StageQuantiles is one (stage, tier) cell's aggregate in a snapshot.
// When Exact is true the quantiles are computed over every recorded
// sample (rank-exact, value-exact); otherwise they are rank-exact over
// exponential buckets (value resolution = bucket width).
type StageQuantiles struct {
	Stage  Stage  `json:"-"`
	Tier   Tier   `json:"-"`
	StageS string `json:"stage"`
	TierS  string `json:"tier"`
	Count  uint64 `json:"count"`
	SumNS  int64  `json:"sum_ns"`
	MaxNS  int64  `json:"max_ns"`
	P50NS  int64  `json:"p50_ns"`
	P99NS  int64  `json:"p99_ns"`
	P999NS int64  `json:"p999_ns"`
	Exact  bool   `json:"exact"`
}

// Tracer allocates trace IDs and aggregates span durations per stage
// and per tier.
type Tracer struct {
	next  atomic.Uint64
	cells [numStages][numTiers]durStat
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// StartTrace returns a fresh nonzero trace ID, or 0 when observation is
// disabled (which downgrades every span carrying it to a no-op).
func (t *Tracer) StartTrace() TraceID {
	if !enabled.Load() {
		return 0
	}
	return TraceID(t.next.Add(1))
}

func (t *Tracer) observe(stage Stage, tier Tier, d int64) {
	if stage >= numStages || tier >= numTiers {
		return
	}
	t.cells[stage][tier].observe(d)
}

// Snapshot returns the non-empty (stage, tier) cells in stage order,
// tiers within a stage ordered quick, full, none.
func (t *Tracer) Snapshot() []StageQuantiles {
	out := make([]StageQuantiles, 0, 8)
	for s := Stage(0); s < numStages; s++ {
		for tr := Tier(0); tr < numTiers; tr++ {
			c := &t.cells[s][tr]
			c.mu.Lock()
			if c.count == 0 {
				c.mu.Unlock()
				continue
			}
			q := StageQuantiles{
				Stage: s, Tier: tr, StageS: s.String(), TierS: tr.String(),
				Count: c.count, SumNS: c.sum, MaxNS: c.max,
				Exact: c.count <= uint64(len(c.samples)),
			}
			if q.Exact {
				samples := append([]int64(nil), c.samples...)
				c.mu.Unlock()
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				q.P50NS = exactQuantile(samples, 0.50)
				q.P99NS = exactQuantile(samples, 0.99)
				q.P999NS = exactQuantile(samples, 0.999)
			} else {
				buckets := append([]uint64(nil), c.buckets...)
				n := c.count
				max := c.max
				c.mu.Unlock()
				q.P50NS = bucketQuantile(buckets, n, max, 0.50)
				q.P99NS = bucketQuantile(buckets, n, max, 0.99)
				q.P999NS = bucketQuantile(buckets, n, max, 0.999)
			}
			out = append(out, q)
		}
	}
	return out
}

// Reset zeroes every cell and restarts trace-ID allocation.
func (t *Tracer) Reset() {
	for s := range t.cells {
		for tr := range t.cells[s] {
			t.cells[s][tr].reset()
		}
	}
	t.next.Store(0)
}

// exactQuantile returns the rank-ceil(q*n) element of a sorted sample
// slice — the classic nearest-rank definition, exact for any n > 0.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) || rank == 0 {
		rank++
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// bucketQuantile locates the rank-ceil(q*n) sample's exponential bucket
// and returns its upper bound (the overflow bucket reports the observed
// max).
func bucketQuantile(buckets []uint64, n uint64, max int64, q float64) int64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) || rank == 0 {
		rank++
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i, c := range buckets {
		seen += c
		if seen >= rank {
			if i < len(stageBounds) {
				return int64(stageBounds[i])
			}
			break
		}
	}
	return max
}
