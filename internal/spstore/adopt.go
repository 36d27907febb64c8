package spstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Capture snapshots a successful rewrite outcome as a Record: the code
// bytes are read back from the machine's JIT segment, the rewrite report is
// kept as compact JSON, and the full assumption set (original-code digest,
// frozen-region digests, known argument values, guard set, effort tier) is
// digested against the live machine — the same derivation Adopt
// revalidates against later.
func Capture(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard, out *brew.Outcome) (*Record, error) {
	if out == nil || out.Degraded || out.Result == nil || out.Result.Degraded {
		return nil, fmt.Errorf("spstore: refusing to capture a degraded outcome")
	}
	res := out.Result
	if res.CodeSize <= 0 {
		return nil, fmt.Errorf("spstore: outcome has no code (size %d)", res.CodeSize)
	}
	code, err := m.Mem.ReadBytes(res.Addr, res.CodeSize)
	if err != nil {
		return nil, fmt.Errorf("spstore: read body at %#x: %w", res.Addr, err)
	}
	a, err := digestAssumptions(m, cfg, fn, args)
	if err != nil {
		return nil, err
	}
	k := keyFrom(a, cfg, fn, args, fargs, guards)
	rec := &Record{
		Key:          k.String(),
		Fn:           fn,
		OrigLen:      a.origLen,
		OrigHash:     a.origHash,
		Fingerprint:  a.fingerprint,
		Effort:       cfg.Effort.String(),
		Guards:       normalizeGuards(guards),
		Args:         append([]uint64(nil), args...),
		FArgs:        append([]float64(nil), fargs...),
		Frozen:       a.frozen,
		CodeAddr:     res.Addr,
		CodeSize:     res.CodeSize,
		Code:         code,
		Blocks:       res.Blocks,
		TracedInstrs: res.TracedInstrs,
	}
	if res.Report != nil {
		if rec.Report, err = json.Marshal(res.Report); err != nil {
			return nil, fmt.Errorf("spstore: encode report: %w", err)
		}
	}
	return rec, nil
}

// CapturePut is Capture followed by Put; the call the service's worker
// makes after a successful install.
func (s *Store) CapturePut(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard, out *brew.Outcome) (*Record, error) {
	rec, err := Capture(m, cfg, fn, args, fargs, guards, out)
	if err != nil {
		return nil, err
	}
	if err := s.Put(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// normalizeGuards returns a sorted copy (order-independent guard keys,
// mirroring specmgr's variant keying).
func normalizeGuards(gs []brew.ParamGuard) []brew.ParamGuard {
	if len(gs) == 0 {
		return nil
	}
	out := slices.Clone(gs)
	slices.SortFunc(out, func(a, b brew.ParamGuard) int {
		if c := cmp.Compare(a.Param, b.Param); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
	return out
}

// revalErr is a revalidation failure: the record is internally
// consistent (checksum passed) but its assumptions do not hold on the
// live machine, or its body cannot be installed faithfully.
type revalErr struct {
	step string // short reason for counters/events
	err  error
	// keep marks a placement miss: nothing is wrong with the record, the
	// machine just has no place for it right now. It stays in the store.
	keep bool
}

func (e *revalErr) Error() string {
	return "spstore: revalidation failed (" + e.step + "): " + e.err.Error()
}
func (e *revalErr) Unwrap() error { return e.err }

// Adopt is the warm-start path: look the request's content address up
// and — never blindly — revalidate the hit against the live machine
// before installing it. The checks, in order:
//
//  1. record identity: fn, Config fingerprint and effort tier match;
//  2. original code: the window at fn re-hashes to the recorded digest;
//  3. frozen regions: every assumed-constant range re-digests to the
//     recorded value (the live contents still satisfy the assumptions);
//  4. guard set: the request's guards equal the recorded set;
//  5. body integrity: the code bytes decode-walk as valid VX64;
//  6. placement: the body is copied to whatever address the JIT allocator
//     offers, every rel32 that leaves the body is re-aimed at its old
//     target, and the placed copy is decoded in lock-step with the
//     recorded stream before it is written (see place).
//
// A clean miss returns (nil, nil, nil). A record failing a check is
// quarantined — with a flight-recorder event and counter — and an error
// describing the failed step is returned; the caller re-traces fresh.
// The exception is a placement miss, which says nothing about the
// record: a full JIT buffer (step "jit-full") or an offered address from
// which a rel32 cannot reach its target ("rel32-range") is counted and
// returned the same way, but the record stays where it is.
// On success the returned Outcome is indistinguishable from a fresh
// brew.Do result except that Result.Report is nil: the report stays raw on
// the returned Record, and Record.DecodeReport decodes it for whoever asks.
// Installing the Outcome through specmgr re-arms the assumption
// watchpoints exactly like a fresh rewrite.
func (s *Store) Adopt(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard) (*brew.Outcome, *Record, error) {
	if cfg == nil {
		return nil, nil, fmt.Errorf("spstore: nil config")
	}
	t0 := time.Now()
	a, err := digestAssumptions(m, cfg, fn, args)
	if err != nil {
		return nil, nil, err
	}
	k := keyFrom(a, cfg, fn, args, fargs, guards)
	rec, ok := s.Get(k)
	if !ok {
		s.st.revalNS.Add(int64(time.Since(t0)))
		return nil, nil, nil
	}
	out, rerr := s.adoptRecord(m, cfg, fn, a, guards, rec)
	s.st.revalNS.Add(int64(time.Since(t0)))
	if rerr != nil {
		s.st.revalFail(rerr.step)
		if !rerr.keep {
			s.Quarantine(k, rerr.step)
		}
		emitPersist(obs.Event{Kind: obs.KindPersist, Fn: fn, Reason: "reval-fail: " + rerr.step})
		return nil, rec, rerr
	}
	s.st.warmHits.Add(1)
	if out.Addr != rec.CodeAddr {
		s.st.relocated.Add(1)
	}
	emitPersist(obs.Event{Kind: obs.KindPersist, Fn: fn, Addr: out.Addr, Reason: "warm-adopt"})
	return out, rec, nil
}

func (s *Store) adoptRecord(m *vm.Machine, cfg *brew.Config, fn uint64, a *assumptions, guards []brew.ParamGuard, rec *Record) (*brew.Outcome, *revalErr) {
	// 1. Identity.
	if rec.Fn != fn {
		return nil, &revalErr{step: "fn-mismatch", err: fmt.Errorf("record fn %#x, request fn %#x", rec.Fn, fn)}
	}
	if rec.Fingerprint != a.fingerprint {
		return nil, &revalErr{step: "fingerprint-mismatch", err: fmt.Errorf("record %016x, request %016x", rec.Fingerprint, a.fingerprint)}
	}
	if rec.Effort != cfg.Effort.String() {
		return nil, &revalErr{step: "effort-mismatch", err: fmt.Errorf("record %q, request %q", rec.Effort, cfg.Effort)}
	}
	// 2. Original code window.
	if rec.OrigLen != a.origLen || rec.OrigHash != a.origHash {
		return nil, &revalErr{step: "orig-code-changed",
			err: fmt.Errorf("recorded %d bytes %016x, live %d bytes %016x", rec.OrigLen, rec.OrigHash, a.origLen, a.origHash)}
	}
	// 3. Frozen regions against the live machine.
	if len(rec.Frozen) != len(a.frozen) {
		return nil, &revalErr{step: "frozen-set-changed",
			err: fmt.Errorf("recorded %d ranges, live config declares %d", len(rec.Frozen), len(a.frozen))}
	}
	for i, fr := range rec.Frozen {
		if fr != a.frozen[i] {
			return nil, &revalErr{step: "frozen-digest-mismatch",
				err: fmt.Errorf("range [%#x,%#x): recorded %016x, live %016x (live range [%#x,%#x))",
					fr.Start, fr.End, fr.Hash, a.frozen[i].Hash, a.frozen[i].Start, a.frozen[i].End)}
		}
	}
	// 4. Guard set.
	want := normalizeGuards(guards)
	if len(want) != len(rec.Guards) {
		return nil, &revalErr{step: "guard-set-changed", err: fmt.Errorf("recorded %d guards, request has %d", len(rec.Guards), len(want))}
	}
	for i := range want {
		if want[i] != rec.Guards[i] {
			return nil, &revalErr{step: "guard-set-changed",
				err: fmt.Errorf("guard %d: recorded %+v, request %+v", i, rec.Guards[i], want[i])}
		}
	}
	// 5. Body integrity: the bytes must decode as VX64 end to end.
	if rec.CodeSize <= 0 || len(rec.Code) != rec.CodeSize {
		return nil, &revalErr{step: "body-size", err: fmt.Errorf("code size %d, %d bytes", rec.CodeSize, len(rec.Code))}
	}
	stream, derr := isa.DecodeAll(rec.Code, rec.CodeAddr)
	if derr != nil {
		return nil, &revalErr{step: "body-undecodable", err: derr}
	}
	// 6. Placement: wherever the allocator has room. InstallJIT rolls its
	// reservation back when gen errors.
	var placed []byte
	addr, ierr := m.InstallJIT(rec.CodeSize, func(at uint64) (b []byte, err error) {
		placed, err = place(rec, stream, at)
		return placed, err
	})
	if ierr != nil {
		return nil, installErr(ierr)
	}
	// Read-back: what the machine now holds is what was placed.
	if got, err := m.Mem.Slice(addr, rec.CodeSize, mem.PermRead); err != nil || !bytes.Equal(got, placed) {
		_ = m.FreeJIT(addr)
		return nil, &revalErr{step: "install-verify", err: fmt.Errorf("installed body does not read back at %#x", addr)}
	}
	// place left its proof in stream: the decode of every instruction as
	// it now reads at addr. The body's first call need not decode it
	// again. A refusal only means it will.
	_ = m.SeedCode(stream)
	res := &brew.Result{
		Addr:         addr,
		CodeSize:     rec.CodeSize,
		Blocks:       rec.Blocks,
		TracedInstrs: rec.TracedInstrs,
	}
	out := &brew.Outcome{Addr: addr, Result: res}
	if len(rec.Guards) > 0 {
		// Mirror brew.Do's guarded shape. The dispatcher brew would have
		// built is not persisted (specmgr frees it at install and rebuilds
		// its own inline-cache chain); Addr 0 marks "no dispatcher code".
		out.Guarded = &brew.GuardedResult{
			Specialized: addr,
			Rewrite:     res,
			Guards:      append([]brew.ParamGuard(nil), rec.Guards...),
		}
	}
	return out, nil
}

// installErr classifies a failed placement: a full buffer or an
// unreachable target is the machine's, anything else the record's.
func installErr(err error) *revalErr {
	var re *revalErr
	switch {
	case errors.Is(err, mem.ErrNoSpace):
		return &revalErr{step: "jit-full", err: err, keep: true}
	case errors.Is(err, isa.ErrRelRange):
		return &revalErr{step: "rel32-range", err: err, keep: true}
	case errors.As(err, &re):
		return re
	default:
		return &revalErr{step: "install", err: err}
	}
}

// place returns the record's body as it must read at address at. stream
// is the decode of rec.Code at rec.CodeAddr (check 5), and it is the only
// source of fixups: VX64 branches and calls are rel32 on the wire, so a
// body moved as a block keeps every reference into itself, and exactly the
// rel32 fields whose target lies outside [CodeAddr, CodeAddr+CodeSize) have
// to be re-aimed — the paper's "relocation of all needed jumps, given start
// addresses" (Section III). Nothing about them is stored in the record, so
// there is no table that can disagree with the code.
//
// Every instruction of the copy is then decoded at its new address, in
// lock-step with stream: same opcode, length, condition and operands, a
// target inside the body shifted by at-CodeAddr, a target outside it
// unchanged. A copy that does not decode to that is never handed to the
// machine. Each stream entry is overwritten with its placed decode, so on
// success stream is the proved decode of the body at at.
func place(rec *Record, stream []isa.Instr, at uint64) ([]byte, error) {
	lo, hi := rec.CodeAddr, rec.CodeAddr+uint64(rec.CodeSize)
	body := append([]byte(nil), rec.Code...)
	off := 0
	for i, want := range stream {
		end := off + want.Len
		if f := isa.Info(want.Op).Format; f == isa.FRel || f == isa.FCC {
			if t := want.Target(); t < lo || t >= hi {
				// Leaves the body: the rel32 is the instruction's last four
				// bytes, relative to its end.
				rel := int64(t) - int64(at+uint64(end))
				if rel < math.MinInt32 || rel > math.MaxInt32 {
					return nil, fmt.Errorf("%w: %s at body offset %d, placed at %#x", isa.ErrRelRange, want, off, at)
				}
				binary.LittleEndian.PutUint32(body[end-4:end], uint32(int32(rel)))
			} else {
				// Stays inside: Dst is the absolute target, which moves
				// with the body.
				want.Dst.Imm += int64(at - lo)
			}
		}
		want.Addr = at + uint64(off)
		got, err := isa.Decode(body[off:], want.Addr)
		if err != nil {
			return nil, &revalErr{step: "lockstep-mismatch", err: fmt.Errorf("body offset %d: %w", off, err)}
		}
		if got != want {
			return nil, &revalErr{step: "lockstep-mismatch",
				err: fmt.Errorf("body offset %d: recorded %q, placed %q", off, want, got)}
		}
		stream[i] = got
		off = end
	}
	return body, nil
}
