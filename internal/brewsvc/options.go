package brewsvc

import (
	"repro/internal/specmgr"
	"repro/internal/spstore"
	"repro/internal/vm"
)

// svcConfig is the resolved service configuration Open builds from its
// functional options. All sizes are per service shard unless noted.
type svcConfig struct {
	shards   int // service shards (queue + worker pool + promotion pump each)
	workers  int // rewriter goroutines per shard
	queueCap int // bounded-queue capacity per shard

	cacheShards   int // specialized-code cache shards (global across service shards)
	cachePerShard int // slot capacity per cache shard (CLOCK eviction)

	policy       specmgr.Policy
	promoteAfter int
	store        *spstore.Store
	admission    *Admission
}

func defaultConfig() svcConfig {
	return svcConfig{
		shards:        1,
		workers:       4,
		queueCap:      64,
		cacheShards:   8,
		cachePerShard: 32,
	}
}

// Option configures a Service at Open.
type Option func(*svcConfig)

// WithShards sets the service shard count (default 1). Requests are
// partitioned by their entry key — the function, the Config fingerprint,
// the known-parameter values and the guard parameter set — so sibling
// guard values share a shard (and a variant table) while unrelated
// fingerprints never contend: each shard owns its own admission lock,
// bounded priority queue, worker pool and promotion pump.
func WithShards(n int) Option {
	return func(c *svcConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithWorkers sets the rewriter goroutine count per shard (default 4).
func WithWorkers(n int) Option {
	return func(c *svcConfig) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithQueueCap bounds each shard's queued (not yet running) requests
// across all priority levels (default 64).
func WithQueueCap(n int) Option {
	return func(c *svcConfig) {
		if n > 0 {
			c.queueCap = n
		}
	}
}

// WithCache sets the specialized-code cache geometry: shard count and slot
// capacity per shard (defaults 8 and 32); a full shard evicts by CLOCK
// (second chance). The cache is global across service shards and its
// serve path is lock-free; size it generously — eviction releases the
// entry's code, so an evicted entry's Addr must no longer be used (the
// specmgr.Release contract).
func WithCache(shards, perShard int) Option {
	return func(c *svcConfig) {
		if shards > 0 {
			c.cacheShards = shards
		}
		if perShard > 0 {
			c.cachePerShard = perShard
		}
	}
}

// WithPolicy configures the service's specialization manager. Detached
// service entries are exempt from MaxLive.
func WithPolicy(p specmgr.Policy) Option {
	return func(c *svcConfig) { c.policy = p }
}

// WithPromotion sets the tiered-rewriting hotness threshold: a cached
// tier-0 (brew.EffortQuick) variant whose hotness — managed calls plus
// profiler samples attributed by NoteSample — reaches after becomes due
// for promotion. The EffortFull re-rewrite and hot-swap start only from
// an explicit PumpPromotions call, whose PromotionBatch the host must
// await before resuming emulated execution (promote.go). Zero or
// negative disables promotion.
func WithPromotion(after int) Option {
	return func(c *svcConfig) { c.promoteAfter = after }
}

// WithStore attaches the persistent rewrite store (warm start): workers
// consult it before tracing a cacheable request — a record passing full
// revalidation (persist.go) is adopted instead of re-traced — and persist
// every successful install they trace.
func WithStore(st *spstore.Store) Option {
	return func(c *svcConfig) { c.store = st }
}

// WithAdmission enables real admission control: per-priority queue-wait
// SLOs with deadline-aware shedding and an explicit per-class overload
// decision, replacing the blanket degrade-on-full default (see
// admission.go). The Admission value is copied at Open.
func WithAdmission(a Admission) Option {
	return func(c *svcConfig) { c.admission = &a }
}

// Open starts a specialization service over machine m. The returned
// service owns its worker goroutines until Close.
//
//	svc := brewsvc.Open(m, brewsvc.WithShards(8), brewsvc.WithWorkers(2))
//
// With no options the service runs one shard with four workers, a
// 64-deep queue and an 8x32 cache.
func Open(m *vm.Machine, opts ...Option) *Service {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return open(m, cfg)
}
