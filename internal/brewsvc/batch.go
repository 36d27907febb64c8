package brewsvc

import "repro/internal/obs"

// SubmitBatch admits a burst of requests in one pass and returns one
// ticket per request, in input order. Semantically it is exactly N
// Submit calls — same admission order, same coalescing, same admission
// control — but the queue transactions collapse: the batch is grouped by
// service shard after the lock-free cache pre-pass, and each shard's
// group is admitted under ONE acquisition of that shard's lock instead
// of one per request. Requests inside the batch that share a key
// singleflight against each other (the first becomes the flight, the
// rest coalesce onto it), exactly as concurrent Submits would.
//
// Like Submit, SubmitBatch never blocks on a trace: every returned
// ticket's Addr is callable immediately.
func (s *Service) SubmitBatch(reqs []*Request) []*Ticket {
	tickets := make([]*Ticket, len(reqs))

	// The requests the lock-free probe does not settle, grouped by shard
	// in input order (nil until the first one: an all-hit batch builds no
	// groups).
	type pending struct {
		i  int // index into reqs/tickets
		pr probed
	}
	var perShard map[*shard][]pending
	for i, req := range reqs {
		pr, out, done := s.probe(req)
		if done {
			tickets[i] = doneTicket(out)
			continue
		}
		if perShard == nil {
			perShard = make(map[*shard][]pending)
		}
		perShard[pr.sh] = append(perShard[pr.sh], pending{i: i, pr: pr})
	}

	// One lock transaction per shard. Within the group, admission runs in
	// input order, so batch-internal duplicates coalesce onto the first
	// occurrence's flight via the inflight table — the singleflight
	// machinery needs no special casing for batches.
	for sh, group := range perShard {
		sh.mu.Lock()
		for _, p := range group {
			tickets[p.i] = sh.admitLocked(reqs[p.i], p.pr)
		}
		sh.mu.Unlock()
		for _, p := range group {
			obs.EndSpanOn(sh.id, p.pr.tid, obs.StageSubmit, obs.TierNone, p.pr.subStart, reqs[p.i].Fn, 0)
		}
	}
	return tickets
}
