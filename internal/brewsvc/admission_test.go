package brewsvc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/vm"
)

// wedgeWorker submits an uncacheable request whose Inject hook blocks the
// (single) rewrite worker inside brew.Do, so everything submitted
// afterwards stays queued deterministically. It returns after the worker
// is provably wedged; the returned release function unblocks it.
func wedgeWorker(t *testing.T, svc *brewsvc.Service, fn uint64) (*brewsvc.Ticket, func()) {
	t.Helper()
	entered := make(chan struct{})
	block := make(chan struct{})
	cfg := brew.NewConfig()
	first := true
	cfg.Inject = func(site string) error {
		if first {
			first = false
			close(entered)
			<-block
		}
		return nil
	}
	tk := svc.Submit(&brewsvc.Request{
		Config: cfg, Fn: fn, Args: []uint64{1, 4},
		Priority: brewsvc.PriorityHigh,
	})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the wedge request")
	}
	var once bool
	return tk, func() {
		if !once {
			once = true
			close(block)
		}
	}
}

// TestAdmissionEstimatedWaitSheds: the arrival-time shed reached through
// the real estimate — a seeded rewrite-latency EWMA times the flights
// queued ahead — sheds a request whose class SLO the queue already
// exceeds, while classes without an SLO queue and complete untouched.
func TestAdmissionEstimatedWaitSheds(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m,
		brewsvc.WithWorkers(1),
		brewsvc.WithAdmission(brewsvc.Admission{
			SLO: [3]time.Duration{brewsvc.PriorityLow: time.Nanosecond},
		}))
	defer svc.Close()

	// One completed rewrite seeds the shard's latency EWMA.
	if seed := svc.Do(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn, Args: []uint64{2, 3},
		Priority: brewsvc.PriorityNormal,
	}); seed.Degraded {
		t.Fatalf("seeding request degraded: %s (%v)", seed.Reason, seed.Err)
	}

	_, release := wedgeWorker(t, svc, fn)
	defer release()

	// One queued Normal flight is ahead of any Low arrival.
	normal := svc.Submit(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn,
		Guards:   []brew.ParamGuard{{Param: 2, Value: 4}},
		Args:     []uint64{0, 0},
		Priority: brewsvc.PriorityNormal,
	})

	// A distinct key: a Low request for a cached key is a hit and never
	// reaches admission. A shed completes inside Submit; an admitted Low
	// flight would wait behind the wedge.
	low, done := svc.Submit(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn,
		Guards:   []brew.ParamGuard{{Param: 2, Value: 9}},
		Args:     []uint64{0, 0},
		Priority: brewsvc.PriorityLow,
	}).TryOutcome()
	if !done {
		t.Fatal("low-priority request was queued, want shed at admission")
	}
	if !low.Degraded || low.Reason != brewsvc.ReasonOverload {
		t.Fatalf("low-priority outcome degraded=%v reason=%q, want overload shed", low.Degraded, low.Reason)
	}
	if !errors.Is(low.Err, brewsvc.ErrOverload) {
		t.Fatalf("low-priority err = %v, want ErrOverload", low.Err)
	}
	if low.Addr != fn {
		t.Fatalf("shed outcome addr %#x, want original %#x (never enqueued)", low.Addr, fn)
	}

	release()
	if out := normal.Outcome(); out.Degraded {
		t.Fatalf("SLO-exempt normal request degraded: %s (%v)", out.Reason, out.Err)
	}

	st := svc.Stats()
	if st.Sheds[brewsvc.PriorityLow] != 1 {
		t.Fatalf("low sheds = %d, want 1", st.Sheds[brewsvc.PriorityLow])
	}
	if st.Sheds[brewsvc.PriorityNormal] != 0 || st.Sheds[brewsvc.PriorityHigh] != 0 {
		t.Fatalf("SLO-exempt classes shed: %v", st.Sheds)
	}
	if st.Rejected != 0 {
		t.Fatalf("admission sheds counted as legacy rejections: %d", st.Rejected)
	}
}

// TestAdmissionEvictLower: when a High-priority arrival finds the queue
// full and its class decision is ShedEvictLower, the oldest strictly
// lower-priority queued flight is evicted (completing degraded with
// ReasonOverload) and the arrival is admitted in its place. With no
// lower-priority victim left, the arrival itself sheds.
func TestAdmissionEvictLower(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	var decisions [3]brewsvc.OverloadDecision
	decisions[brewsvc.PriorityHigh] = brewsvc.ShedEvictLower
	svc := brewsvc.Open(m,
		brewsvc.WithWorkers(1),
		brewsvc.WithQueueCap(2),
		brewsvc.WithAdmission(brewsvc.Admission{
			SLO: [3]time.Duration{
				brewsvc.PriorityLow:    10 * time.Second,
				brewsvc.PriorityNormal: 10 * time.Second,
				brewsvc.PriorityHigh:   10 * time.Second,
			},
			OnOverload: decisions,
		}))
	defer svc.Close()

	_, release := wedgeWorker(t, svc, fn)
	defer release()

	submit := func(k uint64, p brewsvc.Priority) *brewsvc.Ticket {
		return svc.Submit(&brewsvc.Request{
			Config: brew.NewConfig(), Fn: fn,
			Guards:   []brew.ParamGuard{{Param: 2, Value: k}},
			Args:     []uint64{0, 0},
			Priority: p,
		})
	}
	lowA := submit(3, brewsvc.PriorityLow)   // queue 1/2
	lowB := submit(5, brewsvc.PriorityLow)   // queue 2/2
	highC := submit(7, brewsvc.PriorityHigh) // full: evicts lowA, admits C

	// The victim completes degraded immediately, before the worker runs.
	outA := lowA.Outcome()
	if !outA.Degraded || outA.Reason != brewsvc.ReasonOverload || !errors.Is(outA.Err, brewsvc.ErrOverload) {
		t.Fatalf("evicted flight: degraded=%v reason=%q err=%v, want overload", outA.Degraded, outA.Reason, outA.Err)
	}

	// Queue is full again with {lowB, highC}. Another High arrival evicts
	// lowB; the one after finds only High flights — no victim — and sheds
	// itself.
	highD := submit(9, brewsvc.PriorityHigh)
	outB := lowB.Outcome()
	if !outB.Degraded || outB.Reason != brewsvc.ReasonOverload {
		t.Fatalf("second victim: degraded=%v reason=%q, want overload", outB.Degraded, outB.Reason)
	}
	highE := submit(11, brewsvc.PriorityHigh)
	outE := highE.Outcome()
	if !outE.Degraded || outE.Reason != brewsvc.ReasonOverload {
		t.Fatalf("victimless high arrival: degraded=%v reason=%q, want shed arrival", outE.Degraded, outE.Reason)
	}
	if outE.Addr != fn {
		t.Fatalf("shed arrival addr %#x, want original %#x", outE.Addr, fn)
	}

	release()
	for name, tk := range map[string]*brewsvc.Ticket{"highC": highC, "highD": highD} {
		if out := tk.Outcome(); out.Degraded {
			t.Fatalf("%s degraded after release: %s (%v)", name, out.Reason, out.Err)
		}
	}

	st := svc.Stats()
	if st.Sheds[brewsvc.PriorityLow] != 2 {
		t.Errorf("low sheds = %d, want 2 (two eviction victims)", st.Sheds[brewsvc.PriorityLow])
	}
	if st.Sheds[brewsvc.PriorityHigh] != 1 {
		t.Errorf("high sheds = %d, want 1 (the victimless arrival)", st.Sheds[brewsvc.PriorityHigh])
	}
	if st.Rejected != 0 {
		t.Errorf("admission-controlled overload counted as legacy rejection: %d", st.Rejected)
	}
	if st.DeadlineSheds != 0 {
		t.Errorf("unexpected deadline sheds: %d", st.DeadlineSheds)
	}
}

// TestAdmissionDeadlineShed: a flight that waited past its class SLO is
// shed at dequeue — the worker never wastes a trace on a request that
// already missed its deadline.
func TestAdmissionDeadlineShed(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m,
		brewsvc.WithWorkers(1),
		brewsvc.WithQueueCap(8),
		brewsvc.WithAdmission(brewsvc.Admission{
			SLO: [3]time.Duration{brewsvc.PriorityNormal: time.Millisecond},
		}))
	defer svc.Close()

	wedgeTk, release := wedgeWorker(t, svc, fn)
	defer release()

	tk := svc.Submit(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn,
		Guards:   []brew.ParamGuard{{Param: 2, Value: 4}},
		Args:     []uint64{0, 0},
		Priority: brewsvc.PriorityNormal,
	})
	time.Sleep(5 * time.Millisecond) // guarantee the SLO is blown while queued
	release()

	out := tk.Outcome()
	if !out.Degraded || out.Reason != brewsvc.ReasonDeadline {
		t.Fatalf("overdue flight: degraded=%v reason=%q, want deadline shed", out.Degraded, out.Reason)
	}
	if !errors.Is(out.Err, brewsvc.ErrOverload) {
		t.Fatalf("deadline shed err = %v, want ErrOverload", out.Err)
	}
	if wedge := wedgeTk.Outcome(); wedge.Degraded {
		t.Fatalf("wedge request degraded: %s (%v)", wedge.Reason, wedge.Err)
	}

	st := svc.Stats()
	if st.DeadlineSheds != 1 {
		t.Errorf("deadline sheds = %d, want 1", st.DeadlineSheds)
	}
	if st.Sheds[brewsvc.PriorityNormal] != 1 {
		t.Errorf("normal-class sheds = %d, want 1 (deadline sheds count against the class)", st.Sheds[brewsvc.PriorityNormal])
	}

	// The service is healthy afterwards: the same key specializes fine.
	again := svc.Do(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn,
		Guards:   []brew.ParamGuard{{Param: 2, Value: 4}},
		Args:     []uint64{0, 0},
		Priority: brewsvc.PriorityNormal,
	})
	if again.Degraded {
		t.Fatalf("post-shed retry degraded: %s (%v)", again.Reason, again.Err)
	}
}

// TestTicketWaitContext: Wait honors context cancellation without
// cancelling the flight, and returns the outcome once it lands.
func TestTicketWaitContext(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1))
	defer svc.Close()

	_, release := wedgeWorker(t, svc, fn)
	defer release()

	tk := svc.Submit(&brewsvc.Request{
		Config: brew.NewConfig(), Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 6}},
		Args:   []uint64{0, 0},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on cancelled ctx = %v, want context.Canceled", err)
	}
	select {
	case <-tk.Done():
		t.Fatal("abandoned wait completed the ticket")
	default:
	}

	release()
	out, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait after release: %v", err)
	}
	if out.Degraded {
		t.Fatalf("flight degraded: %s (%v)", out.Reason, out.Err)
	}
	if got := tk.Outcome(); got.Addr != out.Addr {
		t.Fatalf("Outcome addr %#x != Wait addr %#x", got.Addr, out.Addr)
	}
}

// TestPromotionBatchAwaitAll: the empty batch is awaitable, and AwaitAll
// surfaces context cancellation while leaving the promotions running.
func TestPromotionBatchAwaitAll(t *testing.T) {
	m := vm.MustNew()
	fn := loadPoly(t, m)
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1), brewsvc.WithPromotion(4))
	defer svc.Close()

	batch := svc.PumpPromotions()
	if batch == nil {
		t.Fatal("PumpPromotions returned nil batch")
	}
	if batch.Len() != 0 {
		t.Fatalf("idle pump enqueued %d promotions", batch.Len())
	}
	outs, err := batch.AwaitAll(context.Background())
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty AwaitAll = %v outcomes, err %v", outs, err)
	}

	// Install a tier-0 variant, make it hot, then pump while the worker
	// is wedged: the promotion flight cannot complete, so awaiting under
	// a cancelled context deterministically returns the context error.
	cfg := brew.NewConfig()
	cfg.Effort = brew.EffortQuick
	out := svc.Do(&brewsvc.Request{Config: cfg, Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 5}}, Args: []uint64{0, 0}})
	if out.Degraded {
		t.Fatalf("tier-0 install degraded: %s (%v)", out.Reason, out.Err)
	}
	for i := 0; i < 4; i++ {
		out.Variant.NoteSample()
	}
	_, release := wedgeWorker(t, svc, fn)
	defer release()
	batch = svc.PumpPromotions()
	if batch.Len() != 1 {
		t.Fatalf("%d promotions pumped, want 1", batch.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := batch.AwaitAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitAll on cancelled ctx = %v, want context.Canceled", err)
	}
	release()
	pouts, err := batch.AwaitAll(context.Background())
	if err != nil {
		t.Fatalf("AwaitAll: %v", err)
	}
	if len(pouts) != 1 || pouts[0].Degraded {
		t.Fatalf("promotion outcomes %+v, want one success", pouts)
	}
	if got := svc.Stats().TierPromotions; got != 1 {
		t.Fatalf("tier promotions = %d, want 1", got)
	}
}
