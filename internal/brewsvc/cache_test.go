package brewsvc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/specmgr"
)

// cacheModel is the reference a cache is held to: which value each key
// resides with, and how every value ever put left (or did not leave) the
// cache. Values are told apart by their variant, one fresh variant per put.
type cacheModel struct {
	c        *cache
	resident map[cacheKey]cacheVal
	keyOf    map[*specmgr.Variant]cacheKey
	fate     map[*specmgr.Variant]string // "evicted", "displaced", "removed"
	order    []*specmgr.Variant          // every value put, in put order
}

func newCacheModel(c *cache) *cacheModel {
	return &cacheModel{
		c:        c,
		resident: make(map[cacheKey]cacheVal),
		keyOf:    make(map[*specmgr.Variant]cacheKey),
		fate:     make(map[*specmgr.Variant]string),
	}
}

// shardLen counts the model's resident keys routed to k's shard.
func (m *cacheModel) shardLen(k cacheKey) int {
	n := 0
	for rk := range m.resident {
		if m.c.shardFor(rk) == m.c.shardFor(k) {
			n++
		}
	}
	return n
}

// settle records that v left the cache as fate, failing if it had
// already left or was never put.
func (m *cacheModel) settle(t *testing.T, v *specmgr.Variant, fate string) {
	t.Helper()
	if _, ok := m.keyOf[v]; !ok {
		t.Fatalf("%s a value that was never put", fate)
	}
	if prev, ok := m.fate[v]; ok {
		t.Fatalf("value of key %+v returned as %s after it was already %s", m.keyOf[v], fate, prev)
	}
	m.fate[v] = fate
}

// put inserts a fresh value under k and checks what came back: the
// displaced slot on a same-key put, exactly one victim from k's shard on
// an insert into a full shard, none otherwise, and never the value just
// inserted.
func (m *cacheModel) put(t *testing.T, k cacheKey) {
	t.Helper()
	val := cacheVal{e: new(specmgr.Entry), v: new(specmgr.Variant), ek: entryKey(k)}
	m.keyOf[val.v] = k
	m.order = append(m.order, val.v)
	old, same := m.resident[k]
	full := !same && m.shardLen(k) >= m.c.shardFor(k).perShard

	evicted := m.c.put(k, val)
	wantVictims := 0
	if full {
		wantVictims = 1
	}
	victims := 0
	for _, ev := range evicted {
		switch {
		case ev.v == val.v:
			t.Fatalf("put of key %+v evicted the just-inserted variant", k)
		case same && ev.v == old.v:
			m.settle(t, ev.v, "displaced")
			same = false
		default:
			vk := m.keyOf[ev.v]
			if cur, ok := m.resident[vk]; !ok || cur.v != ev.v {
				t.Fatalf("put of key %+v evicted a value that is not resident", k)
			}
			if m.c.shardFor(vk) != m.c.shardFor(k) {
				t.Fatalf("put of key %+v evicted key %+v from another shard", k, vk)
			}
			m.settle(t, ev.v, "evicted")
			delete(m.resident, vk)
			victims++
		}
	}
	if same {
		t.Fatalf("same-key put of %+v did not return the displaced slot", k)
	}
	if victims != wantVictims {
		t.Fatalf("put of key %+v into a shard with %d of %d slots evicted %d, want %d",
			k, m.shardLen(k)+victims, m.c.shardFor(k).perShard, victims, wantVictims)
	}
	m.resident[k] = val
}

// remove drops k's slot by its current variant or, on odd draws, tries a
// stale one first; only the current variant may take the slot out.
func (m *cacheModel) remove(t *testing.T, k cacheKey, rng *rand.Rand) {
	t.Helper()
	cur, ok := m.resident[k]
	if rng.Intn(2) == 1 {
		stale := new(specmgr.Variant)
		if m.c.remove(k, stale) {
			t.Fatalf("remove of key %+v with a variant it never held succeeded", k)
		}
	}
	var v *specmgr.Variant
	if ok {
		v = cur.v
	} else {
		v = new(specmgr.Variant)
	}
	if got := m.c.remove(k, v); got != ok {
		t.Fatalf("remove of key %+v = %v, want %v", k, got, ok)
	}
	if ok {
		m.settle(t, v, "removed")
		delete(m.resident, k)
	}
}

// get checks a hit returns the slot's current value and a miss means the
// key is not resident.
func (m *cacheModel) get(t *testing.T, k cacheKey) {
	t.Helper()
	got, ok := m.c.get(k)
	cur, want := m.resident[k]
	if ok != want {
		t.Fatalf("get of key %+v hit=%v, want %v", k, ok, want)
	}
	if ok && (got.v != cur.v || got.e != cur.e) {
		t.Fatalf("get of key %+v returned a value other than the slot's current one", k)
	}
}

// check holds the cache to the model after every step: no shard over its
// capacity, and the published slots are exactly the resident ones.
func (m *cacheModel) check(t *testing.T) {
	t.Helper()
	for i, n := range m.c.shardLens() {
		if n > m.c.shards[i].perShard {
			t.Fatalf("shard %d holds %d slots, capacity %d", i, n, m.c.shards[i].perShard)
		}
	}
	if n := m.c.len(); n != len(m.resident) {
		t.Fatalf("cache holds %d slots, model %d", n, len(m.resident))
	}
}

// finish checks the accounting invariant: every value put is now exactly
// one of resident, evicted, displaced or removed.
func (m *cacheModel) finish(t *testing.T) {
	t.Helper()
	seen := make(map[*specmgr.Variant]bool)
	for i := range m.c.shards {
		for k, ent := range *m.c.shards[i].snap.Load() {
			v := ent.val.v
			if seen[v] {
				t.Fatalf("value of key %+v resident twice", k)
			}
			seen[v] = true
			if m.keyOf[v] != k {
				t.Fatalf("key %+v serves a value put under %+v", k, m.keyOf[v])
			}
			if f, ok := m.fate[v]; ok {
				t.Fatalf("value of key %+v is resident but was returned as %s", k, f)
			}
		}
	}
	for _, v := range m.order {
		if !seen[v] && m.fate[v] == "" {
			t.Fatalf("value of key %+v was lost: neither resident nor returned", m.keyOf[v])
		}
	}
}

// TestCacheFreezeNet runs seeded put/get/remove sequences over one-shard
// and four-shard caches of several capacities and holds every step to a
// model: a hit returns the slot's current value, a shard never holds more
// than its capacity, an insert into a full shard evicts exactly one slot
// and never the just-inserted variant, and every value put ends resident,
// evicted, displaced or removed — exactly one of them. It fixes what any
// replacement policy must keep, not which victim a policy picks.
func TestCacheFreezeNet(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, perShard := range []int{1, 2, 3, 8} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%dx%d/seed%d", shards, perShard, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					m := newCacheModel(newCache(shards, perShard))
					nkeys := 3 * shards * perShard
					for step := 0; step < 2000; step++ {
						k := cacheKey{fn: 0x1000, cfg: uint64(seed), vals: uint64(rng.Intn(nkeys))}
						switch r := rng.Intn(10); {
						case r < 4:
							m.put(t, k)
						case r < 9:
							m.get(t, k)
						default:
							m.remove(t, k, rng)
						}
						m.check(t)
					}
					m.finish(t)
				})
			}
		}
	}
}

// TestCacheClockReadersVsWriter races four lock-free readers against one
// writer that puts a key population past capacity and removes slots, so
// reference bits are set while the hand clears them and slots are evicted
// under readers' feet (run it with -race). Every hit must return a value
// put under the key it asked for; afterwards each shard's ring holds
// exactly the published slots, and every value put is accounted for.
func TestCacheClockReadersVsWriter(t *testing.T) {
	const nkeys, steps = 16, 20000
	m := newCacheModel(newCache(2, 4))
	key := func(i int) cacheKey { return cacheKey{fn: 0x2000, cfg: 7, vals: uint64(i)} }

	var stop atomic.Bool
	var hits atomic.Uint64
	var wg sync.WaitGroup
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt() // a failing writer step must not leave the readers spinning
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := key(rng.Intn(nkeys))
				got, ok := m.c.get(k)
				if !ok {
					continue
				}
				if got.ek != entryKey(k) || got.e == nil || got.v == nil {
					t.Errorf("get of key %+v returned a value put under %+v", k, got.ek)
					return
				}
				hits.Add(1)
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < steps && !t.Failed(); step++ {
		k := key(rng.Intn(nkeys))
		if rng.Intn(8) == 0 {
			m.remove(t, k, rng)
		} else {
			m.put(t, k)
		}
		m.check(t)
	}
	halt()

	for i := range m.c.shards {
		s := &m.c.shards[i]
		snap := *s.snap.Load()
		if len(s.ring) != len(snap) {
			t.Fatalf("shard %d: ring holds %d slots, map %d", i, len(s.ring), len(snap))
		}
		inRing := make(map[cacheKey]bool, len(s.ring))
		for _, ent := range s.ring {
			if snap[ent.key] != ent || inRing[ent.key] {
				t.Fatalf("shard %d: ring slot of key %+v is not the published one, or sits in the ring twice", i, ent.key)
			}
			inRing[ent.key] = true
		}
		if s.hand < 0 || s.hand >= max(len(s.ring), 1) {
			t.Fatalf("shard %d: hand %d outside a ring of %d", i, s.hand, len(s.ring))
		}
	}
	m.finish(t)
	if hits.Load() == 0 {
		t.Fatal("readers never hit: the race exercised nothing")
	}
}
