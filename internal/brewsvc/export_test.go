package brewsvc

// ShardIndexOf exposes the admission routing decision: the index of the
// shard that owns req's entry key. Tests use it to place requests on
// specific shards (cross-shard isolation) and to predict ShardStats
// attribution.
func (s *Service) ShardIndexOf(req *Request) int {
	return s.shardOf(entryKeyOf(req)).id
}

// SetAfterProbe installs f to run on Submit's miss path between the
// unlocked cache probe and the shard lock (nil removes it). Install it
// before the service is shared between goroutines.
func (s *Service) SetAfterProbe(f func()) { s.afterProbe = f }
