package brewsvc

// ShardIndexOf exposes the admission routing decision: the index of the
// shard that owns req's entry key. Tests use it to place requests on
// specific shards (cross-shard isolation) and to predict ShardStats
// attribution.
func (s *Service) ShardIndexOf(req *Request) int {
	_, ek := keysOf(req)
	return s.shardOf(ek).id
}

// SetAfterProbe installs f to run on Submit's miss path between the
// unlocked cache probe and the shard lock (nil removes it). Install it
// before the service is shared between goroutines.
func (s *Service) SetAfterProbe(f func()) { s.afterProbe = f }

// KeyWords exposes the keys the service derives from req, as words: the
// configuration fingerprint, the cache key's value hash and routing hash,
// and the entry key's value hash and routing hash. The key freeze net pins
// them (the function address is the request's own).
func KeyWords(req *Request) [5]uint64 {
	k, ek := keysOf(req)
	return [5]uint64{k.cfg, k.vals, k.hash(), ek.vals, ek.hash()}
}
