package spstore

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Remote is the pluggable second tier: a shared blob store keyed by the
// record's content address, holding encoded record bytes (the same
// framed+checksummed encoding the local tier writes, so a corrupt remote
// copy is caught by the same verification).
//
// Implementations may block; the Store wraps every call with a per-op
// timeout, retries puts with capped exponential backoff, and opens a
// circuit breaker after repeated failures — an unreliable Remote can
// slow the background worker, never the serve path.
type Remote interface {
	// Get returns the encoded record for key, or ErrNotFound. The slice
	// passes to the caller, and the record decoded from it shares its bytes:
	// an implementation must not write to it afterwards.
	Get(key string) ([]byte, error)
	// Put stores the encoded record under key.
	Put(key string, data []byte) error
}

// ErrNotFound is the Remote miss sentinel.
var ErrNotFound = errors.New("spstore: not found")

// errInjectedTimeout / errInjectedRemote simulate the two remote failure
// classes (a deadline expiry and a 5xx-equivalent server error).
var (
	errInjectedTimeout = errors.New("spstore: injected remote timeout")
	errInjectedRemote  = errors.New("spstore: injected remote error")
)

// putJob is one write-behind unit.
type putJob struct {
	key  string
	data []byte
}

// remoteTier wraps Options.Remote with the unreliable-network policy:
// per-op timeouts, capped exponential backoff with jitter on the
// write-behind path, and a circuit breaker that degrades the store to
// local-only while the remote is down.
type remoteTier struct {
	s   *Store
	r   Remote
	opt Options

	jobs    chan putJob
	pending atomic.Int64 // enqueued but not yet finished jobs
	stop    chan struct{}
	stopped sync.Once
	done    chan struct{}

	mu        sync.Mutex
	rng       *rand.Rand
	consec    int       // consecutive failures
	openUntil time.Time // breaker open until (zero = closed)
	halfOpen  bool      // one probe allowed after cooldown
}

const remoteQueueCap = 256

func newRemoteTier(s *Store, opt Options) *remoteTier {
	t := &remoteTier{
		s:    s,
		r:    opt.Remote,
		opt:  opt,
		jobs: make(chan putJob, remoteQueueCap),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		rng:  rand.New(rand.NewSource(1)), // jitter only; determinism irrelevant
	}
	go t.loop()
	return t
}

// call runs fn under the per-op timeout. The Remote interface is
// synchronous, so a timed-out call's goroutine is left to finish into a
// buffered channel — the caller moves on immediately.
func (t *remoteTier) call(fn func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(t.opt.RemoteTimeout):
		return errInjectedTimeout
	case <-t.stop:
		return errors.New("spstore: store closed")
	}
}

// allow consults the circuit breaker. While open, all remote traffic is
// skipped (the store serves local-only); after the cooldown one probe is
// let through half-open — success closes the breaker, failure re-opens.
func (t *remoteTier) allow() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(t.openUntil) {
		return false
	}
	if t.halfOpen {
		return false // a probe is already out
	}
	t.halfOpen = true
	return true
}

func (t *remoteTier) breakerOpen() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.openUntil.IsZero() && time.Now().Before(t.openUntil)
}

func (t *remoteTier) noteResult(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.halfOpen = false
	if err == nil || errors.Is(err, ErrNotFound) {
		t.consec = 0
		t.openUntil = time.Time{}
		return
	}
	t.consec++
	if t.consec >= t.opt.BreakerThreshold {
		wasOpen := !t.openUntil.IsZero() && time.Now().Before(t.openUntil)
		t.openUntil = time.Now().Add(t.opt.BreakerCooldown)
		if !wasOpen {
			t.s.st.brkOpens.Add(1)
			mBreakerOpen.Inc()
			emitPersist(obs.Event{Kind: obs.KindPersist, Reason: "breaker-open"})
		}
	}
}

// get fetches key from the remote tier, best-effort: breaker-gated and
// timeout-bounded; any failure is a miss.
func (t *remoteTier) get(key string) ([]byte, bool) {
	if !t.allow() {
		return nil, false
	}
	var data []byte
	err := t.call(func() error {
		if t.s.inject(InjectRemoteTimeout) {
			time.Sleep(t.opt.RemoteTimeout) // hold the line past the deadline
			return errInjectedTimeout
		}
		if t.s.inject(InjectRemoteErr) {
			return errInjectedRemote
		}
		b, err := t.r.Get(key)
		data = b
		return err
	})
	t.noteResult(err)
	switch {
	case err == nil:
		return data, true
	case errors.Is(err, ErrNotFound):
		return nil, false
	case errors.Is(err, errInjectedTimeout):
		t.s.st.remoteTOs.Add(1)
		mRemoteTimeouts.Inc()
		return nil, false
	default:
		t.s.st.remoteErrs.Add(1)
		mRemoteErrors.Inc()
		return nil, false
	}
}

// enqueuePut hands a write-behind put to the background worker. A full
// queue drops the job (the record is safe in the local tier; the remote
// copy is an optimization) — the serve path never blocks here.
func (t *remoteTier) enqueuePut(key string, data []byte) {
	t.pending.Add(1)
	select {
	case t.jobs <- putJob{key: key, data: data}:
	default:
		t.pending.Add(-1)
		t.s.st.remoteDrops.Add(1)
		mRemoteDrops.Inc()
	}
}

func (t *remoteTier) loop() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			// Drain the queue as dropped so pending reaches zero and a
			// concurrent Drain observes completion.
			for {
				select {
				case <-t.jobs:
					t.pending.Add(-1)
					t.s.st.remoteDrops.Add(1)
					mRemoteDrops.Inc()
				default:
					return
				}
			}
		case j := <-t.jobs:
			t.runPut(j)
			t.pending.Add(-1)
		}
	}
}

// runPut attempts one write-behind put with capped exponential backoff
// and jitter. Backoff sleeps select on the stop channel, so Close (and
// therefore brewsvc.Close) never waits out a backoff schedule.
func (t *remoteTier) runPut(j putJob) {
	const (
		baseBackoff = 10 * time.Millisecond
		maxBackoff  = 500 * time.Millisecond
	)
	backoff := baseBackoff
	for attempt := 0; attempt < t.opt.RemoteRetries; attempt++ {
		if attempt > 0 {
			t.mu.Lock()
			// Full jitter over [backoff/2, backoff): spreads retry storms
			// without ever collapsing the wait to zero.
			d := backoff/2 + time.Duration(t.rng.Int63n(int64(backoff/2)))
			t.mu.Unlock()
			select {
			case <-time.After(d):
			case <-t.stop:
				t.s.st.remoteDrops.Add(1)
				mRemoteDrops.Inc()
				return
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if !t.allow() {
			continue // breaker open: burn the attempt, retry after backoff
		}
		err := t.call(func() error {
			if t.s.inject(InjectRemoteTimeout) {
				time.Sleep(t.opt.RemoteTimeout)
				return errInjectedTimeout
			}
			if t.s.inject(InjectRemoteErr) {
				return errInjectedRemote
			}
			return t.r.Put(j.key, j.data)
		})
		t.noteResult(err)
		switch {
		case err == nil:
			t.s.st.remotePuts.Add(1)
			mRemotePuts.Inc()
			return
		case errors.Is(err, errInjectedTimeout):
			t.s.st.remoteTOs.Add(1)
			mRemoteTimeouts.Inc()
		default:
			t.s.st.remoteErrs.Add(1)
			mRemoteErrors.Inc()
		}
	}
	t.s.st.remoteDrops.Add(1)
	mRemoteDrops.Inc()
	emitPersist(obs.Event{Kind: obs.KindPersist, Reason: "remote-put-abandoned"})
}

// drain waits (bounded) for the write-behind backlog to reach zero.
func (t *remoteTier) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func (t *remoteTier) close() {
	t.stopped.Do(func() { close(t.stop) })
	<-t.done
}

// MemRemote is an in-memory Remote for tests and examples: a map behind
// a mutex, with optional per-call failure hooks.
type MemRemote struct {
	mu sync.Mutex
	m  map[string][]byte

	// FailGet/FailPut, when non-nil, run before each op; a non-nil error
	// return is the op's result (simulating network/server failures).
	FailGet func(key string) error
	FailPut func(key string) error

	gets, puts atomic.Uint64
}

// NewMemRemote returns an empty in-memory remote tier.
func NewMemRemote() *MemRemote { return &MemRemote{m: map[string][]byte{}} }

// Get implements Remote.
func (r *MemRemote) Get(key string) ([]byte, error) {
	r.gets.Add(1)
	if r.FailGet != nil {
		if err := r.FailGet(key); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

// Put implements Remote.
func (r *MemRemote) Put(key string, data []byte) error {
	r.puts.Add(1)
	if r.FailPut != nil {
		if err := r.FailPut(key); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[key] = append([]byte(nil), data...)
	return nil
}

// Len returns the number of stored blobs.
func (r *MemRemote) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Ops returns the lifetime get/put call counts (including failed ones).
func (r *MemRemote) Ops() (gets, puts uint64) { return r.gets.Load(), r.puts.Load() }

// Corrupt flips one bit in the stored blob for key (test helper for the
// remote-corruption path). It reports whether the key existed.
func (r *MemRemote) Corrupt(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[key]
	if !ok || len(b) == 0 {
		return false
	}
	b = append([]byte(nil), b...)
	b[len(b)/2] ^= 0x10
	r.m[key] = b
	return true
}
