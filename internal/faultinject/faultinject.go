// Package faultinject provides deterministic, seeded fault injection for
// the rewrite pipeline and the persistent store. It drives two seams,
// brew.Config.Inject (Hook) and spstore.Options.Inject (StoreHook): an
// Injector is armed with per-point firing rates and decides
// pseudo-randomly — but reproducibly for a given seed — whether each
// visited injection point fails, panics, or passes. The chaos tests
// (internal/specmgr, internal/brewsvc) use it to prove the robustness
// invariant: under thousands of injected faults the system is never wrong
// and never crashes; at worst it runs the original code at generic speed.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/brew"
	"repro/internal/obs"
)

// Point identifies one class of injectable fault.
type Point string

// Injection points.
const (
	// PointJITAlloc simulates code-buffer exhaustion at install time.
	PointJITAlloc Point = "jit-alloc"
	// PointOpcode simulates an unsupported opcode mid-trace.
	PointOpcode Point = "opcode"
	// PointBudget simulates trace-budget exhaustion mid-trace.
	PointBudget Point = "budget"
	// PointPanic panics inside the rewrite pipeline (recovered by brew).
	PointPanic Point = "panic"
	// PointDispatch simulates allocation failure for the guard dispatcher,
	// after the specialized body was already generated.
	PointDispatch Point = "dispatch"
)

// Persistent-store injection points (internal/spstore). The names match
// the spstore.Inject* fault-point strings: the store consults them
// through StoreHook and simulates the corruption itself, so the read
// path faces genuine torn/truncated/flipped bytes.
const (
	// PointStoreTornWrite leaves a half-written record under a live key
	// (crash mid-write without atomic rename).
	PointStoreTornWrite Point = "store-torn-write"
	// PointStoreTruncate cuts the record's tail (checksum and trailing
	// body bytes missing).
	PointStoreTruncate Point = "store-truncate"
	// PointStoreBitFlip flips one bit after the checksum was computed
	// (silent media corruption, typically in the code bytes).
	PointStoreBitFlip Point = "store-bit-flip"
	// PointStoreStaleAssume persists a record whose assumption digests
	// lie — checksum-valid, only revalidation can reject it.
	PointStoreStaleAssume Point = "store-stale-assume"
)

// Points lists every rewrite-pipeline injection point (the set ArmAll
// arms; store points are separate so existing chaos suites keep their
// decision streams).
var Points = []Point{PointJITAlloc, PointOpcode, PointBudget, PointPanic, PointDispatch}

// StorePoints lists every persistent-store injection point.
var StorePoints = []Point{
	PointStoreTornWrite, PointStoreTruncate, PointStoreBitFlip, PointStoreStaleAssume,
}

// Injector makes seeded pass/fail decisions at armed points. It is safe
// for concurrent use; determinism holds for a fixed sequence of Should
// calls (the chaos tests drive it single-threaded per machine).
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rate    map[Point]float64
	checked map[Point]uint64
	fired   map[Point]uint64
}

// New returns an Injector with the given seed and nothing armed.
func New(seed int64) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		rate:    make(map[Point]float64),
		checked: make(map[Point]uint64),
		fired:   make(map[Point]uint64),
	}
}

// Arm sets the firing probability (0..1) for a point. Zero disarms it.
func (in *Injector) Arm(p Point, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if rate <= 0 {
		delete(in.rate, p)
	} else {
		in.rate[p] = rate
	}
	return in
}

// ArmAll arms every rewrite-pipeline point at the same rate (store
// points are armed individually).
func (in *Injector) ArmAll(rate float64) *Injector {
	for _, p := range Points {
		in.Arm(p, rate)
	}
	return in
}

// Should reports whether the fault at p fires now, advancing the seeded
// stream. Unarmed points never fire and do not consume randomness, so
// arming one point does not perturb another's decision sequence.
func (in *Injector) Should(p Point) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.rate[p]
	if !ok {
		return false
	}
	in.checked[p]++
	if in.rng.Float64() >= r {
		return false
	}
	in.fired[p]++
	// Flight-recorder correspondence: every fired fault leaves a recorded
	// event (emitted before the fault propagates, so even an injected
	// panic is preceded by its record).
	if obs.Enabled() {
		obs.Emit(obs.Event{Kind: obs.KindFault, Tier: obs.TierNone, Reason: string(p)})
	}
	return true
}

// Fired returns how often the fault at p fired.
func (in *Injector) Fired(p Point) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// TotalFired returns the number of injected faults across all points.
func (in *Injector) TotalFired() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, v := range in.fired {
		n += v
	}
	return n
}

// Summary returns a deterministic "point:fired/checked" listing.
func (in *Injector) Summary() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	pts := make([]string, 0, len(in.checked))
	for p := range in.checked {
		pts = append(pts, string(p))
	}
	sort.Strings(pts)
	s := ""
	for _, p := range pts {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%d/%d", p, in.fired[Point(p)], in.checked[Point(p)])
	}
	return s
}

// Hook adapts the Injector to the brew.Config.Inject seam, mapping
// pipeline sites to injection points and returning errors of the same
// types the genuine failures produce (so degradation classification is
// exercised identically):
//
//	SiteTrace    -> PointOpcode (ErrUnsupported), PointBudget
//	             (ErrTraceTooLong), PointPanic (panics)
//	SiteInstall  -> PointJITAlloc (ErrCodeBufferFull)
//	SiteDispatch -> PointDispatch (ErrCodeBufferFull)
func (in *Injector) Hook() func(site string) error {
	return func(site string) error {
		switch site {
		case brew.SiteTrace:
			if in.Should(PointOpcode) {
				return fmt.Errorf("%w: injected unsupported opcode", brew.ErrUnsupported)
			}
			if in.Should(PointBudget) {
				return fmt.Errorf("%w: injected budget exhaustion", brew.ErrTraceTooLong)
			}
			if in.Should(PointPanic) {
				panic("faultinject: injected mid-rewrite panic")
			}
		case brew.SiteInstall:
			if in.Should(PointJITAlloc) {
				return fmt.Errorf("%w: injected allocation failure", brew.ErrCodeBufferFull)
			}
		case brew.SiteDispatch:
			if in.Should(PointDispatch) {
				return fmt.Errorf("%w: injected dispatcher allocation failure", brew.ErrCodeBufferFull)
			}
		}
		return nil
	}
}

// StoreHook adapts the Injector to the spstore.Options.Inject seam: the
// store passes its fault-point name, the hook maps it onto the matching
// store Point and makes the seeded decision (with the same recorded-
// event and Fired accounting as every other point). Unknown names never
// fire.
func (in *Injector) StoreHook() func(point string) bool {
	known := map[string]Point{}
	for _, p := range StorePoints {
		known[string(p)] = p
	}
	return func(point string) bool {
		p, ok := known[point]
		if !ok {
			return false
		}
		return in.Should(p)
	}
}
