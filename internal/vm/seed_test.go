package vm_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/spstore"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// TestAdoptedBodyFirstCallDecodesNothing: a body spstore adopts — moved,
// with its call out to the kernel re-aimed — runs its first call from the
// records the adoption seeded, and computes the golden checksum. Dropping
// those records makes the same call decode, so the count is not vacuous.
func TestAdoptedBodyFirstCallDecodesNothing(t *testing.T) {
	s, err := spstore.Open(spstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sweep := func(w *stencil.Workload) (*brew.Config, []uint64) {
		cfg, args := w.SweepConfig()
		cfg.SetFuncOpts(w.Apply, brew.FuncOpts{NoInline: true})
		return cfg, args
	}

	m1 := vm.MustNew()
	w1, err := stencil.New(m1, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg1, args1 := sweep(w1)
	out, err := brew.Do(m1, &brew.Request{Config: cfg1, Fn: w1.Sweep, Args: args1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CapturePut(m1, cfg1, w1.Sweep, args1, nil, nil, out); err != nil {
		t.Fatal(err)
	}

	m2 := vm.MustNew()
	w2, err := stencil.New(m2, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Run the original once: the driver, the kernel the body calls and the
	// HALT stub are decoded before the body exists.
	if _, err := w2.RunSweeps(w2.Apply, false, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.InstallJIT(32, func(uint64) ([]byte, error) { return make([]byte, 32), nil }); err != nil {
		t.Fatal(err)
	}
	cfg2, args2 := sweep(w2)
	aout, _, err := s.Adopt(m2, cfg2, w2.Sweep, args2, nil, nil)
	if err != nil || aout == nil {
		t.Fatalf("adopt: (%v, %v)", aout, err)
	}
	if aout.Addr == out.Addr {
		t.Fatalf("adopted at the recorded address %#x: nothing was moved", out.Addr)
	}

	const iters = 3
	run := func() uint64 {
		t.Helper()
		if err := w2.ResetMatrices(); err != nil {
			t.Fatal(err)
		}
		before := m2.Decodes()
		got, err := w2.RunRewrittenSweeps(aout.Addr, iters)
		if err != nil {
			t.Fatal(err)
		}
		if want := w2.Golden(iters); math.Abs(got-want) > 1e-9 {
			t.Fatalf("adopted body checksum %g, golden %g", got, want)
		}
		return m2.Decodes() - before
	}
	if d := run(); d != 0 {
		t.Fatalf("first calls of the adopted body decoded %d instructions, want 0", d)
	}
	if err := m2.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	m2.InvalidateCode(aout.Addr, aout.Addr+uint64(aout.Result.CodeSize))
	if d := run(); d == 0 {
		t.Fatal("the body decodes nothing even with its records dropped: the count is vacuous")
	}
}

// TestSeedCodeRefuses: a stream that is not contiguous, does not lie in
// an executable segment, or names an opcode memory does not hold is
// refused whole; the body then decodes on its first call as ever.
func TestSeedCodeRefuses(t *testing.T) {
	code := bodyCode(t, 4)
	// Each case returns the stream to offer and the body it covers, which
	// must then decode on its first call.
	cases := []struct {
		name   string
		stream func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64)
	}{
		{"gap", func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64) {
			return slices.Delete(decodeAt(t, code, at), 1, 2), at
		}},
		{"overlap", func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64) {
			s := decodeAt(t, code, at)
			s[1].Addr--
			return s, at
		}},
		{"not-executable", func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64) {
			if err := m.Mem.WriteBytes(vm.DataBase, code); err != nil {
				t.Fatal(err)
			}
			return append(decodeAt(t, code, vm.DataBase), decodeAt(t, code, at)...), at
		}},
		{"past-segment-end", func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64) {
			// The body sits at the very end of the code segment; the
			// stream claims one more instruction after it.
			end := uint64(vm.CodeBase + vm.CodeSize)
			body := end - uint64(len(code))
			if err := m.Mem.WriteBytes(body, code); err != nil {
				t.Fatal(err)
			}
			nop := isa.MakeNone(isa.NOP)
			nop.Addr, nop.Len = end, 1
			return append(decodeAt(t, code, body), nop), body
		}},
		{"opcode-mismatch", func(t *testing.T, m *vm.Machine, at uint64) ([]isa.Instr, uint64) {
			s := decodeAt(t, code, at)
			s[2].Op = isa.HALT // memory holds RET there
			return s, at
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := vm.MustNew()
			if _, err := m.Call(m.HaltAddr()); err != nil {
				t.Fatal(err)
			}
			stream, body := c.stream(t, m, installBody(t, m, 4))
			if err := m.SeedCode(stream); err == nil {
				t.Fatal("stream seeded")
			}
			before := m.Decodes()
			if got, err := m.Call(body); err != nil || got != 5 {
				t.Fatalf("body returned %d, %v", got, err)
			}
			if d := m.Decodes() - before; d != 3 {
				t.Fatalf("first call decoded %d instructions, want all 3: the refused stream was seeded", d)
			}
		})
	}
	t.Run("accepted", func(t *testing.T) {
		m := vm.MustNew()
		if _, err := m.Call(m.HaltAddr()); err != nil {
			t.Fatal(err)
		}
		at := installBody(t, m, 4)
		if err := m.SeedCode(decodeAt(t, code, at)); err != nil {
			t.Fatal(err)
		}
		before := m.Decodes()
		if got, err := m.Call(at); err != nil || got != 5 {
			t.Fatalf("body returned %d, %v", got, err)
		}
		if d := m.Decodes() - before; d != 0 {
			t.Fatalf("first call of a seeded body decoded %d instructions", d)
		}
	})
}

// TestSeedConcurrentWithInstall: service workers adopt on one idle machine
// at once, so installs, seeds and stub patches race each other under the
// JIT lock. Every body must then run from its seeded records. Run under
// -race.
func TestSeedConcurrentWithInstall(t *testing.T) {
	m := vm.MustNew()
	if _, err := m.Call(m.HaltAddr()); err != nil {
		t.Fatal(err)
	}
	stub := installBody(t, m, 0)
	const workers = 8
	bodies := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		code := bodyCode(t, 10*w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				at, err := m.InstallJIT(len(code), func(uint64) ([]byte, error) { return code, nil })
				if err != nil {
					t.Error(err)
					return
				}
				stream, err := isa.DecodeAll(code, at)
				if err == nil {
					err = m.SeedCode(stream)
				}
				if err == nil && round < 19 {
					err = m.FreeJIT(at)
				}
				if err != nil {
					t.Error(err)
					return
				}
				bodies[w] = at
			}
		}()
	}
	patch := bodyCode(t, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			if err := m.WriteJIT(stub, patch); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	before := m.Decodes()
	for w, at := range bodies {
		if got, err := m.Call(at); err != nil || got != uint64(10*w+1) {
			t.Fatalf("body %d returned %d, %v", w, got, err)
		}
	}
	if d := m.Decodes() - before; d != 0 {
		t.Fatalf("seeded bodies decoded %d instructions", d)
	}
	if err := m.CheckRecords(); err != nil {
		t.Fatal(err)
	}
}

func decodeAt(t *testing.T, code []byte, at uint64) []isa.Instr {
	t.Helper()
	s, err := isa.DecodeAll(code, at)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
