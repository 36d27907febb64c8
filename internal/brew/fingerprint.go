package brew

import (
	"cmp"
	"slices"
	"time"
)

// fp is an incremental FNV-1a/64 hash with domain-separation tags, the
// canonicalization core of Config.Fingerprint.
type fp uint64

const (
	fnvOffset64 fp = 14695981039346656037
	fnvPrime64  fp = 1099511628211
)

func (h *fp) byte(b byte) { *h = (*h ^ fp(b)) * fnvPrime64 }
func (h *fp) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(v >> i))
	}
}
func (h *fp) i64(v int64) { h.u64(uint64(v)) }
func (h *fp) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

// tag separates the fingerprint domains so e.g. a handler address can never
// collide with a limit of the same numeric value.
func (h *fp) tag(t string) {
	for i := 0; i < len(t); i++ {
		h.byte(t[i])
	}
	h.byte(0)
}

func (h *fp) funcOpts(o FuncOpts) {
	// Hash the normalized form without the UnrollFactor sugar field, so
	// {UnrollFactor: 4} and {BranchesUnknown: true, MaxVariants: 4} — the
	// same semantics — fingerprint identically.
	o = o.normalized()
	h.bool(o.NoInline)
	h.bool(o.BranchesUnknown)
	h.bool(o.ResultsUnknown)
	h.i64(int64(o.MaxVariants))
}

// fpMemo is a remembered Fingerprint: the value, the setter generation it
// was computed at, and the exported inputs it read then.
type fpMemo struct {
	gen uint64
	in  fpInputs
	fp  uint64
}

// fpInputs is a comparable snapshot of the exported fields Fingerprint
// hashes. The Budget is held by value, so an edit made through the
// pointer shows as a change.
type fpInputs struct {
	defaults  FuncOpts
	limits    [5]int
	handlers  [4]uint64
	vectorize bool
	effort    Effort
	hasBudget bool
	budget    Budget
}

func (c *Config) fpInputs() fpInputs {
	in := fpInputs{
		defaults:  c.Defaults,
		limits:    [5]int{c.MaxTracedInstrs, c.MaxBlocks, c.MaxInlineDepth, c.MaxVariantsPerAddr, c.MaxCodeBytes},
		handlers:  [4]uint64{c.EntryHandler, c.ExitHandler, c.LoadHandler, c.StoreHandler},
		vectorize: c.Vectorize,
		effort:    c.Effort,
	}
	if c.Budget != nil {
		in.hasBudget, in.budget = true, *c.Budget
	}
	return in
}

// Fingerprint returns a canonical 64-bit hash of the rewrite assumptions
// this configuration declares: parameter classes, known memory ranges,
// per-function options, handlers, limits, budget, flags, and the effort
// tier (tier-0 and tier-1 code are distinct artifacts, so they must
// never share a cache slot or coalesce onto one flight). It is
// order-independent — two semantically equal configurations built by
// different call sequences (ranges added in different orders, options set
// for functions in different orders) fingerprint identically — so it is
// usable as a specialization cache key (internal/brewsvc keys its shards
// by it, combined with the known argument values).
//
// The Inject fault-injection hook is deliberately excluded: it is a
// runtime test seam, not a rewrite assumption. The service layer refuses
// to cache or coalesce Inject-bearing requests for exactly that reason.
//
// The value is remembered: a call on a configuration no setter and no
// exported-field write has touched since the last call returns it without
// hashing again.
func (c *Config) Fingerprint() uint64 {
	in := c.fpInputs()
	if m := c.fp.Load(); m != nil && m.gen == c.gen && m.in == in {
		return m.fp
	}
	v := c.fingerprint()
	c.remember(fpMemo{gen: c.gen, in: in, fp: v})
	return v
}

// remember publishes m as the configuration's memo: in the embedded slot
// the first time, which the one caller that claims it writes before
// publishing and nobody writes afterwards, and in a fresh allocation
// after that, since a reader may still hold the previous memo.
func (c *Config) remember(m fpMemo) {
	slot := &c.memo
	if !c.memoUsed.CompareAndSwap(false, true) {
		slot = new(fpMemo)
	}
	*slot = m
	c.fp.Store(slot)
}

// fingerprint hashes the configuration (see Fingerprint).
func (c *Config) fingerprint() uint64 {
	h := fnvOffset64

	h.tag("iparams")
	for _, s := range c.intParams {
		h.byte(byte(s.class))
		h.u64(s.size)
	}
	h.tag("fparams")
	for _, class := range c.floatParams {
		h.byte(byte(class))
	}

	// The sorted copies below live in stack buffers, so an ordinary
	// configuration fingerprints without allocating; longer lists spill to
	// the heap. The order and the bytes hashed are those of a sort by
	// value, so the fingerprint is independent of how the lists were built.
	h.tag("ranges")
	var rangeBuf [8]MemRange
	ranges := append(rangeBuf[:0], c.knownRanges...)
	slices.SortFunc(ranges, func(a, b MemRange) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.End, b.End)
	})
	for i, r := range ranges {
		if i > 0 && r == ranges[i-1] {
			continue // duplicates declare nothing new
		}
		h.u64(r.Start)
		h.u64(r.End)
	}

	h.tag("funcopts")
	var addrBuf [16]uint64
	addrs := addrBuf[:0]
	for a := range c.funcOpts {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		h.u64(a)
		h.funcOpts(c.funcOpts[a])
	}

	h.tag("dyn")
	marks := addrBuf[:0] // the function addresses are hashed; reuse their buffer
	for a, on := range c.dynMarkers {
		if on {
			marks = append(marks, a)
		}
	}
	slices.Sort(marks)
	for _, a := range marks {
		h.u64(a)
	}

	h.tag("defaults")
	h.funcOpts(c.Defaults)

	h.tag("limits")
	h.i64(int64(c.MaxTracedInstrs))
	h.i64(int64(c.MaxBlocks))
	h.i64(int64(c.MaxInlineDepth))
	h.i64(int64(c.MaxVariantsPerAddr))
	h.i64(int64(c.MaxCodeBytes))

	h.tag("handlers")
	h.u64(c.EntryHandler)
	h.u64(c.ExitHandler)
	h.u64(c.LoadHandler)
	h.u64(c.StoreHandler)

	h.tag("flags")
	h.bool(c.Vectorize)

	h.tag("effort")
	h.byte(byte(c.Effort))

	h.tag("budget")
	if c.Budget != nil {
		h.byte(1)
		h.i64(int64(c.Budget.MaxTracedInstrs))
		h.i64(int64(c.Budget.MaxEmittedBytes))
		h.i64(int64(c.Budget.Deadline / time.Nanosecond))
	} else {
		h.byte(0)
	}

	return uint64(h)
}

// Clone returns an independent deep copy: mutating the clone's parameter
// declarations, ranges, per-function options, markers, or budget never
// affects the original (Do clones before augmenting guarded requests). Nil
// maps stay nil, so a clone of an invalid zero-value Config still fails
// validation. The Inject hook is shared — it is a stateless seam by
// contract — as are handler addresses. The remembered Fingerprint is
// carried over: the copy starts with equal content and generation, and
// each side checks its own memo against its own fields from then on.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	cc := c.shallowCopy()
	if m := c.fp.Load(); m != nil {
		cc.remember(*m)
	}
	if c.knownRanges != nil {
		cc.knownRanges = append([]MemRange(nil), c.knownRanges...)
	}
	if c.funcOpts != nil {
		cc.funcOpts = make(map[uint64]FuncOpts, len(c.funcOpts))
		for a, o := range c.funcOpts {
			cc.funcOpts[a] = o
		}
	}
	if c.dynMarkers != nil {
		cc.dynMarkers = make(map[uint64]bool, len(c.dynMarkers))
		for a, on := range c.dynMarkers {
			cc.dynMarkers[a] = on
		}
	}
	if c.Budget != nil {
		b := *c.Budget
		cc.Budget = &b
	}
	return cc
}
