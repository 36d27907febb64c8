package spstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/stencil"
	"repro/internal/vm"
)

const sweepIters = 6

// TestCaptureAdoptRoundtrip is the core warm-start equivalence: a record
// captured on one machine is adopted by an identically built "restarted"
// machine at the same address with byte-identical code, and the adopted
// kernel computes the same checksums as the golden reference.
func TestCaptureAdoptRoundtrip(t *testing.T) {
	s := openStore(t, Options{})

	// First boot: trace fresh, persist.
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	out, err := brew.Do(m1, &brew.Request{Config: cfg1, Fn: w1.Apply, Args: args1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.CapturePut(m1, cfg1, w1.Apply, args1, nil, nil, out)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: identical machine, no tracing — adopt from the store.
	m2, w2 := newStencil(t)
	cfg2, args2 := w2.ApplyConfig()
	aout, arec, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil)
	if aerr != nil {
		t.Fatalf("adopt: %v", aerr)
	}
	if aout == nil {
		t.Fatal("adopt missed the just-persisted record")
	}
	if arec.Key != rec.Key {
		t.Fatalf("adopted %s, persisted %s", arec.Key, rec.Key)
	}
	if aout.Result.Addr != out.Result.Addr {
		t.Fatalf("adopted at %#x, fresh rewrite at %#x", aout.Result.Addr, out.Result.Addr)
	}
	fresh, err := m1.Mem.ReadBytes(out.Result.Addr, out.Result.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m2.Mem.ReadBytes(aout.Result.Addr, aout.Result.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, warm) {
		t.Fatal("adopted body differs from the fresh rewrite")
	}

	// Behavior: the adopted kernel reproduces the golden checksum.
	if err := w2.ResetMatrices(); err != nil {
		t.Fatal(err)
	}
	got, err := w2.RunSweeps(aout.Result.Addr, false, sweepIters)
	if err != nil {
		t.Fatal(err)
	}
	want := w2.Golden(sweepIters)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("adopted kernel checksum %g, golden %g", got, want)
	}

	st := s.Stats()
	if st.WarmHits != 1 || st.RevalFails != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want exactly 1 warm hit", st)
	}
}

// TestAdoptChangedWorldIsCleanMiss: when an assumed-frozen region holds
// different bytes, the content address itself changes — the stale record
// is simply never found (no revalidation failure, no quarantine).
func TestAdoptChangedWorldIsCleanMiss(t *testing.T) {
	s := openStore(t, Options{})
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	out, err := brew.Do(m1, &brew.Request{Config: cfg1, Fn: w1.Apply, Args: args1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CapturePut(m1, cfg1, w1.Apply, args1, nil, nil, out); err != nil {
		t.Fatal(err)
	}

	m2, w2 := newStencil(t)
	// The restarted world runs a different stencil: one descriptor weight
	// differs, so the frozen digest — and the key — differ.
	b, err := m2.Mem.ReadBytes(w2.S5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Mem.WriteBytes(w2.S5, []byte{b[0] ^ 0x01}); err != nil {
		t.Fatal(err)
	}
	cfg2, args2 := w2.ApplyConfig()
	aout, arec, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil)
	if aerr != nil || aout != nil || arec != nil {
		t.Fatalf("changed world: got (%v, %v, %v), want clean miss", aout, arec, aerr)
	}
	st := s.Stats()
	if st.RevalFails != 0 || st.Quarantined != 0 || st.LocalMisses != 1 {
		t.Fatalf("stats = %+v, want one clean miss", st)
	}
}

// TestAdoptStaleAssumptionQuarantined: a checksum-valid record whose
// recorded digests lie (the stale-assume fault: content address and
// framing both check out) is caught by revalidation, quarantined, and
// never installed — zero JIT bytes leak.
func TestAdoptStaleAssumptionQuarantined(t *testing.T) {
	armed := true
	s := openStore(t, Options{Inject: func(p string) bool {
		return armed && p == InjectStaleAssume
	}})
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	out, err := brew.Do(m1, &brew.Request{Config: cfg1, Fn: w1.Apply, Args: args1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CapturePut(m1, cfg1, w1.Apply, args1, nil, nil, out); err != nil {
		t.Fatal(err)
	}
	armed = false

	m2, w2 := newStencil(t)
	baseline := m2.JITFreeBytes()
	cfg2, args2 := w2.ApplyConfig()
	aout, arec, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil)
	if aerr == nil || aout != nil {
		t.Fatalf("lying record adopted: (%v, %v, %v)", aout, arec, aerr)
	}
	if arec == nil {
		t.Fatal("revalidation failure should surface the rejected record")
	}
	if m2.JITFreeBytes() != baseline {
		t.Fatalf("rejected adoption leaked JIT bytes: %d -> %d", baseline, m2.JITFreeBytes())
	}
	st := s.Stats()
	if st.RevalFails != 1 || st.Quarantined != 1 || st.WarmHits != 0 {
		t.Fatalf("stats = %+v, want 1 reval failure + 1 quarantine", st)
	}
	// The record is gone: the next lookup is a clean miss, so the caller
	// re-traces fresh rather than fighting the same corpse forever.
	if aout, _, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil); aout != nil || aerr != nil {
		t.Fatalf("quarantined record resurrected: (%v, %v)", aout, aerr)
	}
}

// callingSweep is the stencil sweep specialized with its kernel kept as a
// call: a body with a rel32 that leaves it, which is what a move has to
// re-aim (the paper's kernels inline everything and have none).
func callingSweep(w *stencil.Workload) (*brew.Config, []uint64) {
	cfg, args := w.SweepConfig()
	cfg.SetFuncOpts(w.Apply, brew.FuncOpts{NoInline: true})
	return cfg, args
}

// persist traces fn under cfg on the first-boot machine m and persists it;
// it returns the record and what one body costs the JIT allocator.
func persist(t *testing.T, s *Store, m *vm.Machine, fn uint64, cfg *brew.Config, args []uint64) (rec *Record, jitCost uint64) {
	t.Helper()
	before := m.JITFreeBytes()
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = s.CapturePut(m, cfg, fn, args, nil, nil, out); err != nil {
		t.Fatal(err)
	}
	return rec, before - m.JITFreeBytes()
}

func persistSweep(t *testing.T, s *Store) (rec *Record, jitCost uint64) {
	t.Helper()
	m, w := newStencil(t)
	cfg, args := callingSweep(w)
	return persist(t, s, m, w.Sweep, cfg, args)
}

// park takes size bytes of m's JIT buffer, so that whatever is installed
// next lands somewhere a first boot did not put it.
func park(t *testing.T, m *vm.Machine, size int) uint64 {
	t.Helper()
	addr, err := m.InstallJIT(size, func(uint64) ([]byte, error) { return make([]byte, size), nil })
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// refusedInPlace asserts the guarantees of a placement miss: the refusal
// names step, the record is still under its live name, nothing was
// quarantined and no JIT byte leaked.
func refusedInPlace(t *testing.T, s *Store, m *vm.Machine, rec *Record, jitBefore uint64, aerr error, step string) {
	t.Helper()
	var re *revalErr
	if !errors.As(aerr, &re) || re.step != step {
		t.Fatalf("refusal = %v, want step %q", aerr, step)
	}
	if _, err := os.Stat(s.pathFor(keyOf(t, rec))); err != nil {
		t.Fatalf("a placement miss moved the record: %v", err)
	}
	if got := m.JITFreeBytes(); got != jitBefore {
		t.Fatalf("refused adoption leaked JIT bytes: %d -> %d", jitBefore, got)
	}
	st := s.Stats()
	if st.Quarantined != 0 || st.WarmHits != 0 || st.RevalFails != 1 || st.RevalFailsByStep[step] != 1 {
		t.Fatalf("stats = %+v, want one %q refusal and no quarantine", st, step)
	}
}

// TestAdoptRelocatesToOfferedAddress: when the restarted machine's
// allocator does not reproduce the recorded address (something else took
// JIT space first), the body is adopted where there is room, re-aimed, and
// computes what the original does.
func TestAdoptRelocatesToOfferedAddress(t *testing.T) {
	s := openStore(t, Options{})
	rec, jitCost := persistSweep(t, s)

	m2, w2 := newStencil(t)
	park(t, m2, 32)
	baseline := m2.JITFreeBytes()
	cfg2, args2 := callingSweep(w2)
	aout, _, aerr := s.Adopt(m2, cfg2, w2.Sweep, args2, nil, nil)
	if aerr != nil || aout == nil {
		t.Fatalf("adopt on a perturbed allocator: (%v, %v)", aout, aerr)
	}
	if aout.Addr == rec.CodeAddr {
		t.Fatalf("adopted at the recorded address %#x: the allocator was not perturbed", rec.CodeAddr)
	}
	if got := baseline - m2.JITFreeBytes(); got != jitCost {
		t.Fatalf("adoption holds %d JIT bytes, one body costs %d", got, jitCost)
	}
	placed, err := m2.Mem.ReadBytes(aout.Addr, rec.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(placed, rec.Code) {
		t.Fatal("moved body is byte-identical to the record: no call or exit was re-aimed")
	}

	if err := w2.ResetMatrices(); err != nil {
		t.Fatal(err)
	}
	got, err := w2.RunRewrittenSweeps(aout.Addr, sweepIters)
	if err != nil {
		t.Fatal(err)
	}
	if want := w2.Golden(sweepIters); math.Abs(got-want) > 1e-9 {
		t.Fatalf("relocated kernel checksum %g, golden %g", got, want)
	}
	if st := s.Stats(); st.WarmHits != 1 || st.Relocated != 1 || st.RevalFails != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 relocated warm hit", st)
	}
}

// TestAdoptJITFullRefusedInPlace: a JIT buffer with no room for the body
// refuses the adoption; the record is not at fault and stays.
func TestAdoptJITFullRefusedInPlace(t *testing.T) {
	s := openStore(t, Options{})
	rec, _ := persistSweep(t, s)

	m2, w2 := newStencil(t)
	// Fill the buffer to the brim: what is left is smaller than the body.
	park(t, m2, int(m2.JITFreeBytes())-rec.CodeSize)
	baseline := m2.JITFreeBytes()
	cfg2, args2 := callingSweep(w2)
	aout, arec, aerr := s.Adopt(m2, cfg2, w2.Sweep, args2, nil, nil)
	if aout != nil || arec == nil {
		t.Fatalf("adopt into a full JIT buffer: (%v, %v, %v)", aout, arec, aerr)
	}
	refusedInPlace(t, s, m2, rec, baseline, aerr, "jit-full")

	// With room again the very same record adopts.
	m3, w3 := newStencil(t)
	cfg3, args3 := callingSweep(w3)
	if aout, _, aerr := s.Adopt(m3, cfg3, w3.Sweep, args3, nil, nil); aerr != nil || aout == nil {
		t.Fatalf("record refused for placement did not adopt later: (%v, %v)", aout, aerr)
	}
}

// TestAdoptRel32RangeRefusedInPlace: a record captured so far away that a
// call leaving its body cannot be re-aimed from the offered address is
// refused like a full buffer, not quarantined.
func TestAdoptRel32RangeRefusedInPlace(t *testing.T) {
	s := openStore(t, Options{})
	rec, _ := persistSweep(t, s)

	// Hand-build the body: captured 8 GiB up, calling a neighbour there.
	far := *rec
	far.CodeAddr = 8 << 30
	call := isa.Instr{Op: isa.CALL, Dst: isa.ImmOp(int64(far.CodeAddr) + 4096), Addr: far.CodeAddr}
	code, err := isa.AppendEncode(nil, call)
	if err != nil {
		t.Fatal(err)
	}
	if code, err = isa.AppendEncode(code, isa.MakeNone(isa.RET)); err != nil {
		t.Fatal(err)
	}
	far.Code, far.CodeSize = code, len(code)
	if err := s.Put(&far); err != nil {
		t.Fatal(err)
	}

	m2, w2 := newStencil(t)
	baseline := m2.JITFreeBytes()
	cfg2, args2 := callingSweep(w2)
	aout, _, aerr := s.Adopt(m2, cfg2, w2.Sweep, args2, nil, nil)
	if aout != nil || !errors.Is(aerr, isa.ErrRelRange) {
		t.Fatalf("adopt of an unreachable body: (%v, %v), want isa.ErrRelRange", aout, aerr)
	}
	refusedInPlace(t, s, m2, &far, baseline, aerr, "rel32-range")
}

// TestAdoptDamagedRecordNeverRelocated: the record file cut at every
// offset and with every byte flipped, offered to a machine whose allocator
// forces a move — each one is quarantined, none is adopted. Placing a body
// anywhere has not loosened what gets placed.
func TestAdoptDamagedRecordNeverRelocated(t *testing.T) {
	s := openStore(t, Options{})
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	rec, _ := persist(t, s, m1, w1.Apply, cfg1, args1)
	path := s.pathFor(keyOf(t, rec))
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, w2 := newStencil(t)
	park(t, m2, 32)
	baseline := m2.JITFreeBytes()
	cfg2, args2 := w2.ApplyConfig()

	stride := 1
	if testing.Short() {
		stride = 13
	}
	damaged := 0
	offer := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if aout, _, _ := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil); aout != nil {
			t.Fatalf("%s: damaged record adopted at %#x", what, aout.Addr)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: damaged record still under its live name", what)
		}
		damaged++
	}
	for cut := 0; cut < len(enc); cut += stride {
		offer(fmt.Sprintf("cut at %d", cut), enc[:cut])
	}
	for i := 0; i < len(enc); i += stride {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 1 << (i % 8)
		offer(fmt.Sprintf("byte %d flipped", i), mut)
	}
	if st := s.Stats(); st.Quarantined != uint64(damaged) || st.WarmHits != 0 {
		t.Fatalf("stats = %+v, want %d quarantines and no warm hit", st, damaged)
	}
	if got := m2.JITFreeBytes(); got != baseline {
		t.Fatalf("damaged records leaked JIT bytes: %d -> %d", baseline, got)
	}
}

// TestCaptureRefusesDegraded: degraded outcomes never enter the store.
func TestCaptureRefusesDegraded(t *testing.T) {
	m, w := newStencil(t)
	cfg, args := w.ApplyConfig()
	if _, err := Capture(m, cfg, w.Apply, args, nil, nil, &brew.Outcome{
		Addr: w.Apply, Degraded: true, Reason: "test",
		Result: &brew.Result{Addr: w.Apply, Degraded: true},
	}); err == nil {
		t.Fatal("degraded outcome captured")
	}
}

// TestAdoptedReportDecodesOnDemand: an adoption does not decode the
// rewrite report — the adopted Result carries none — and the record it
// returns decodes to exactly the report of the fresh rewrite.
func TestAdoptedReportDecodesOnDemand(t *testing.T) {
	s := openStore(t, Options{})
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	out, err := brew.Do(m1, &brew.Request{Config: cfg1, Fn: w1.Apply, Args: args1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CapturePut(m1, cfg1, w1.Apply, args1, nil, nil, out); err != nil {
		t.Fatal(err)
	}

	m2, w2 := newStencil(t)
	cfg2, args2 := w2.ApplyConfig()
	aout, arec, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil)
	if aerr != nil || aout == nil {
		t.Fatalf("adopt: (%v, %v)", aout, aerr)
	}
	if aout.Result.Report != nil {
		t.Fatal("adoption decoded the report")
	}
	rep, err := arec.DecodeReport()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, out.Result.Report) {
		t.Fatalf("decoded report differs from the fresh rewrite's:\n got %+v\nwant %+v", rep, out.Result.Report)
	}
}

// TestAdoptAllocs pins what one adoption allocates — 28 on amd64 with go
// 1.24, 182 when the body was JSON and the report was decoded: the digests
// and the read-back look at guest memory in place, the body and the report
// are slices of the file read, the report is not decoded, and the seeded
// decode is the stream check 5 allocated (one allocation is the machine's
// array of executor records for the body's page).
func TestAdoptAllocs(t *testing.T) {
	s := openStore(t, Options{})
	m1, w1 := newStencil(t)
	cfg1, args1 := w1.ApplyConfig()
	persist(t, s, m1, w1.Apply, cfg1, args1)

	m2, w2 := newStencil(t)
	park(t, m2, 32) // every adoption moves
	cfg2, args2 := w2.ApplyConfig()
	allocs := testing.AllocsPerRun(50, func() {
		aout, _, aerr := s.Adopt(m2, cfg2, w2.Apply, args2, nil, nil)
		if aerr != nil || aout == nil {
			t.Fatalf("adopt: (%v, %v)", aout, aerr)
		}
		if err := m2.FreeJIT(aout.Addr); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 27 + 3
	t.Logf("%.0f allocations per adoption", allocs)
	if allocs > pinned {
		t.Fatalf("an adoption allocates %.0f times, pinned at %d", allocs, pinned)
	}
}
