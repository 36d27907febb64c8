package brewsvc

import (
	"slices"
	"sync/atomic"

	"repro/internal/lockstat"
	"repro/internal/specmgr"
)

// cacheVal is what a cache slot serves: the shared variant-table entry,
// the specific variant this key's guard values route to (for the
// liveness check on hit), and the entry key whose reference the slot
// holds.
type cacheVal struct {
	e  *specmgr.Entry
	v  *specmgr.Variant
	ek entryKey
}

// cache is the sharded specialized-code cache: key-partitioned shards,
// each a CLOCK (second-chance) cache over installed variants published as
// an immutable map snapshot behind an atomic pointer. The hit path is
// LOCK-FREE and, in steady state, writes nothing: get loads the snapshot,
// looks the key up and loads the slot's reference bit, storing it only
// when it is clear — no mutex, so a warm hit takes zero service locks (the
// E10f bar, internal/lockstat), and no read-modify-write, so concurrent
// hits do not bounce a shared cache line. Writers (put, remove, drain)
// serialize on the shard's mutex, keep the shard's ring and hand in step
// with the map, and publish a fresh copied map; shards hold at most
// perShard entries, so the copy-on-write cost is small and off the serve
// path (put follows a multi-millisecond trace). Writer locks are leaves:
// nothing is acquired under them, and eviction victims are returned to the
// caller for reclamation outside the lock.
type cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       lockstat.Mutex // writers only; readers go through snap
	perShard int
	snap     atomic.Pointer[map[cacheKey]*cacheEnt]
	// ring holds the published slots in CLOCK order and hand is the next
	// slot the eviction sweep visits; both are guarded by mu.
	ring []*cacheEnt
	hand int
}

// cacheEnt is one published slot. val and key are immutable after
// publication; ref is the reference bit, set lock-free by readers on a
// hit and cleared by the eviction sweep.
type cacheEnt struct {
	val cacheVal
	key cacheKey
	ref atomic.Bool
}

func newCache(shards, perShard int) *cache {
	c := &cache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].perShard = perShard
		m := make(map[cacheKey]*cacheEnt)
		c.shards[i].snap.Store(&m)
	}
	return c
}

func (c *cache) shardFor(k cacheKey) *cacheShard {
	return &c.shards[k.hash()%uint64(len(c.shards))]
}

// get returns the cached value for k and sets its reference bit.
// Lock-free: snapshot load, map read, one atomic load, and a store only
// when the bit is clear (once per slot per sweep that cleared it). A get
// racing a put may miss a just-published slot or mark a just-evicted one —
// both are benign (the former re-traces through singleflight, the latter
// sets a bit on a dead object).
func (c *cache) get(k cacheKey) (cacheVal, bool) {
	ent := (*c.shardFor(k).snap.Load())[k]
	if ent == nil {
		return cacheVal{}, false
	}
	if !ent.ref.Load() {
		ent.ref.Store(true)
	}
	return ent.val, true
}

// cloneEnts copies the snapshot map for a writer about to publish.
func cloneEnts(old map[cacheKey]*cacheEnt) map[cacheKey]*cacheEnt {
	m := make(map[cacheKey]*cacheEnt, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	return m
}

// put inserts an installed variant and returns the values evicted to make
// room: the displaced slot on key collision, or the sweep's victim when
// the shard is full. The new slot enters with its reference bit clear and
// takes the displaced slot's ring position or the victim's; after a sweep
// the hand sits just past it, so it is the last slot the next sweep
// visits. The caller reclaims the evicted values outside the shard lock.
func (c *cache) put(k cacheKey, val cacheVal) []cacheVal {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	ents := cloneEnts(*s.snap.Load())
	ent := &cacheEnt{val: val, key: k}
	var evicted []cacheVal
	if old := ents[k]; old != nil {
		// Singleflight admission makes a same-key race impossible, but a
		// re-trace after a demotion or an external Release lands here; keep
		// the newer code.
		evicted = append(evicted, old.val)
		s.ring[slices.Index(s.ring, old)] = ent
	} else if len(s.ring) < s.perShard {
		s.ring = append(s.ring, ent)
	} else if i := s.sweep(val.v); i >= 0 {
		victim := s.ring[i]
		delete(ents, victim.key)
		evicted = append(evicted, victim.val)
		s.ring[i] = ent
	} else {
		// Every slot serves the just-inserted variant: keep them all and
		// run over capacity rather than evict it.
		s.ring = append(s.ring, ent)
	}
	ents[k] = ent
	s.snap.Store(&ents)
	return evicted
}

// sweep moves the hand to the first slot whose reference bit is clear,
// clearing the set bits it passes (their second chance), and returns that
// slot's ring index with the hand just past it. Slots serving keep — the
// variant being inserted — are never chosen. Readers may set a bit again
// behind the hand, so after two laps without a clear bit the first
// eligible slot the sweep passed is the victim; only when every slot
// serves keep does it return -1. Shard mu held.
func (s *cacheShard) sweep(keep *specmgr.Variant) int {
	n := len(s.ring)
	first := -1
	for range 2 * n {
		i := s.hand
		s.hand = (i + 1) % n
		ent := s.ring[i]
		if ent.val.v == keep {
			continue
		}
		if !ent.ref.Load() {
			return i
		}
		ent.ref.Store(false)
		if first < 0 {
			first = i
		}
	}
	if first >= 0 {
		s.hand = (first + 1) % n
	}
	return first
}

// remove drops the slot for k if it still serves the same variant (a
// racing put may have replaced it) and reports whether it did. Used by
// the hit path when it finds the slot's variant demoted.
func (c *cache) remove(k cacheKey, v *specmgr.Variant) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.snap.Load()
	ent := old[k]
	if ent == nil || ent.val.v != v {
		return false
	}
	ents := cloneEnts(old)
	delete(ents, k)
	i := slices.Index(s.ring, ent)
	s.ring = slices.Delete(s.ring, i, i+1)
	if s.hand > i {
		s.hand--
	}
	if s.hand == len(s.ring) {
		s.hand = 0
	}
	s.snap.Store(&ents)
	return true
}

// drain empties every shard and returns all values (Close reclamation).
func (c *cache) drain() []cacheVal {
	var out []cacheVal
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, ent := range s.ring {
			out = append(out, ent.val)
		}
		s.ring, s.hand = nil, 0
		empty := make(map[cacheKey]*cacheEnt)
		s.snap.Store(&empty)
		s.mu.Unlock()
	}
	return out
}

// shardLens reports each shard's slot count (introspection: occupancy
// skew across shards is a hash-quality signal).
func (c *cache) shardLens() []int {
	out := make([]int, len(c.shards))
	for i := range c.shards {
		out[i] = len(*c.shards[i].snap.Load())
	}
	return out
}

// len counts cached slots across shards (tests and metrics).
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		n += len(*c.shards[i].snap.Load())
	}
	return n
}
