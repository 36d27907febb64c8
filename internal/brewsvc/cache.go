package brewsvc

import (
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
// each an LRU over installed variants published as an immutable map
// snapshot behind an atomic pointer. The hit path is LOCK-FREE: get
// loads the snapshot, looks the key up, and bumps two atomics (the shard
// clock and the slot's last-use stamp) — it never acquires a mutex, so a
// warm hit takes zero service locks (the E10f bar, internal/lockstat).
// Writers (put, remove, drain) serialize on the shard's mutex and publish a
// fresh copied map; shards hold at most perShard entries, so the
// copy-on-write cost is small and off the serve path (put follows a
// multi-millisecond trace). Writer locks are leaves: nothing is acquired
// under them, and eviction victims are returned to the caller for
// reclamation outside the lock.
type cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       lockstat.Mutex // writers only; readers go through snap
	perShard int
	snap     atomic.Pointer[map[cacheKey]*cacheEnt]
	clock    atomic.Uint64
}

// cacheEnt is one published slot. val is immutable after publication;
// lastUse is the only mutable field and is written lock-free by readers.
type cacheEnt struct {
	val     cacheVal
	lastUse atomic.Uint64
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

// get returns the cached value for k, touching its LRU stamp. Lock-free:
// snapshot load, map read, two atomic bumps. A get racing a put may miss
// a just-published slot or touch a just-evicted one — both are benign
// (the former re-traces through singleflight, the latter is a harmless
// stamp on a dead object).
func (c *cache) get(k cacheKey) (cacheVal, bool) {
	s := c.shardFor(k)
	ent := (*s.snap.Load())[k]
	if ent == nil {
		return cacheVal{}, false
	}
	ent.lastUse.Store(s.clock.Add(1))
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
// room (the displaced slot on key collision plus LRU victims over
// capacity). The caller reclaims them outside the shard lock.
func (c *cache) put(k cacheKey, val cacheVal) []cacheVal {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	ents := cloneEnts(*s.snap.Load())
	var evicted []cacheVal
	if old := ents[k]; old != nil {
		// Singleflight admission makes a same-key race impossible, but a
		// re-trace after a demotion or an external Release lands here; keep
		// the newer code.
		evicted = append(evicted, old.val)
	}
	ent := &cacheEnt{val: val}
	ent.lastUse.Store(s.clock.Add(1))
	ents[k] = ent
	for len(ents) > s.perShard {
		var victimKey cacheKey
		var victim *cacheEnt
		var victimUse uint64
		for vk, ve := range ents {
			if ve.val.v == val.v {
				continue // never evict the just-inserted variant
			}
			use := ve.lastUse.Load()
			if victim == nil || use < victimUse {
				victimKey, victim, victimUse = vk, ve, use
			}
		}
		if victim == nil {
			break
		}
		delete(ents, victimKey)
		evicted = append(evicted, victim.val)
	}
	s.snap.Store(&ents)
	return evicted
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
	s.snap.Store(&ents)
	return true
}

// drain empties every shard and returns all values (Close reclamation).
func (c *cache) drain() []cacheVal {
	var out []cacheVal
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, ent := range *s.snap.Load() {
			out = append(out, ent.val)
		}
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
