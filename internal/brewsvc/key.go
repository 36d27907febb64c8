package brewsvc

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/brew"
	"repro/internal/isa"
)

// cacheKey identifies one specialization: the function, the canonical
// configuration fingerprint, and the values the specialization was built
// for. Two requests with the same key produce interchangeable code, so
// they may share a trace (coalescing) and a cache slot.
type cacheKey struct {
	fn   uint64
	cfg  uint64 // brew.Config.Fingerprint()
	vals uint64 // hash of known-parameter values and guard values
}

// FNV-1a/64, matching the Config.Fingerprint construction.
const (
	keyOffset64 uint64 = 14695981039346656037
	keyPrime64  uint64 = 1099511628211
)

func keyMix(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(v>>i))) * keyPrime64
	}
	return h
}

// mixKnownParams folds the known-parameter values into h: only parameters
// the Config declares known contribute their argument values, so callers
// differing in unknown-parameter values request the same specialization.
func mixKnownParams(h uint64, req *Request) uint64 {
	for i := 1; i <= len(isa.IntArgRegs); i++ {
		class, _ := req.Config.IntParamClass(i)
		if class == brew.ParamUnknown {
			continue
		}
		h = keyMix(h, uint64(i))
		if i <= len(req.Args) {
			h = keyMix(h, req.Args[i-1])
		}
	}
	for i := 1; i <= len(isa.FloatArgRegs); i++ {
		if req.Config.FloatParamClass(i) == brew.ParamUnknown {
			continue
		}
		h = keyMix(h, uint64(i)|1<<32)
		if i <= len(req.FArgs) {
			h = keyMix(h, math.Float64bits(req.FArgs[i-1]))
		}
	}
	return h
}

// entryKey identifies one variant-table entry: the function, the
// configuration fingerprint (which includes the effort tier), the known
// non-guard parameter values, and the SET of guarded parameters — but not
// the guard values. Requests differing only in guard values map to the
// same entry and become sibling variants behind its inline-cache dispatch
// stub; requests differing in anything else need distinct stubs (the
// chain can only distinguish callers by the guarded registers).
type entryKey struct {
	fn   uint64
	cfg  uint64 // brew.Config.Fingerprint()
	vals uint64 // hash of known-parameter values and the guard param set
}

// keysOf computes the request's cache key and entry key in one pass: one
// Fingerprint, one fold of the known parameters, one sort of the guards.
// Guards contribute order-independently: the cache key hashes them sorted
// by (param, value), the entry key hashes the param sequence of that same
// order. Unguarded requests get one entry per cache key, the pre-variant
// behavior. Up to 8 guards sort in a stack buffer, so a warm hit derives
// its keys without allocating.
func keysOf(req *Request) (cacheKey, entryKey) {
	cfg := req.Config.Fingerprint()
	vals := mixKnownParams(keyOffset64, req)
	k := cacheKey{fn: req.Fn, cfg: cfg, vals: vals}
	ek := entryKey{fn: req.Fn, cfg: cfg, vals: vals}
	if n := len(req.Guards); n > 0 {
		var buf [8]brew.ParamGuard
		gs := append(buf[:0], req.Guards...)
		slices.SortFunc(gs, func(a, b brew.ParamGuard) int {
			if a.Param != b.Param {
				return cmp.Compare(a.Param, b.Param)
			}
			return cmp.Compare(a.Value, b.Value)
		})
		k.vals = keyMix(k.vals, uint64(n)|1<<33)
		ek.vals = keyMix(ek.vals, uint64(n)|1<<34)
		for _, g := range gs {
			k.vals = keyMix(keyMix(k.vals, uint64(g.Param)), g.Value)
			ek.vals = keyMix(ek.vals, uint64(g.Param))
		}
	}
	return k, ek
}

// hash folds the key into one word for shard selection.
func (k cacheKey) hash() uint64 {
	h := keyOffset64
	h = keyMix(h, k.fn)
	h = keyMix(h, k.cfg)
	h = keyMix(h, k.vals)
	return h
}

// hash folds the entry key into one word for service-shard selection.
// Partitioning the service by entry key (not cache key) keeps sibling
// guard-value variants — which share a variant-table entry — on one shard,
// while unrelated fingerprints land on different shards and never contend.
func (k entryKey) hash() uint64 {
	h := keyOffset64
	h = keyMix(h, k.fn)
	h = keyMix(h, k.cfg)
	h = keyMix(h, k.vals)
	return h
}
