package vm_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// bodyCode is a position-independent function returning ret+1.
func bodyCode(t *testing.T, ret int) []byte {
	t.Helper()
	p, err := asm.AssembleAt(fmt.Sprintf("f:\n movi r0, %d\n addi r0, 1\n ret\n", ret), vm.JITBase, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p.Code
}

// installBody installs bodyCode(ret) into the JIT segment.
func installBody(t *testing.T, m *vm.Machine, ret int) uint64 {
	t.Helper()
	code := bodyCode(t, ret)
	addr, err := m.InstallJIT(len(code), func(uint64) ([]byte, error) { return code, nil })
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestGuestStoreIntoCodeIsSeen: a guest that overwrites the immediate of
// an instruction it has already executed, by every kind of store, and
// runs it again must see the new value. The instruction is a 10-byte
// movi, so the stores land 2 to 9 bytes past the start of the decoded
// instruction they must invalidate. The seeded variants start from
// records SeedCode filled before the first call instead of from decodes.
func TestGuestStoreIntoCodeIsSeen(t *testing.T) {
	const new = 0x2222222222222222
	cases := []struct {
		name, patch string
		want        uint64
	}{
		{"store", "movi r5, 0x2222222222222222\n store [r4+2], r5", new},
		{"storeb-last-byte", "movi r5, 0x22\n storeb [r4+9], r5", 0x2211111111111111},
		{"push", "movi r5, 0x2222222222222222\n mov r6, r15\n lea r15, [r4+10]\n push r5\n mov r15, r6", new},
		{"fstore", "movi r5, 0x2222222222222222\n fmovif f1, r5\n fstore [r4+2], f1", new},
		// Lanes 1-3 are zero bytes: they overwrite the 24 NOPs with NOPs.
		{"vstore", "movi r5, lanes\n vload v0, [r5]\n vstore [r4+2], v0", new},
	}
	for _, seeded := range []bool{false, true} {
		for _, c := range cases {
			name := c.name
			if seeded {
				name += "/seeded"
			}
			t.Run(name, func(t *testing.T) { guestStoreIntoCode(t, c.patch, c.want, seeded) })
		}
	}
}

func guestStoreIntoCode(t *testing.T, patch string, want uint64, seeded bool) {
	const old = 0x1111111111111111
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    movi r2, 0
here:
    movi r0, 0x1111111111111111
`+strings.Repeat("    nop\n", 24)+`
    cmpi r2, 1
    jeq  done
    movi r2, 1
    movi r4, here
    `+patch+`
    jmp  here
done:
    ret
.data
lanes:
    .quad 0x2222222222222222, 0, 0, 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if seeded {
		stream, err := isa.DecodeAll(im.Code, im.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SeedCode(stream); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Call(im.MustEntry("f"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("second execution returned %#x, want %#x (first returns %#x)", got, want, uint64(old))
	}
	if err := m.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestWriteJITConcurrentWithInstall: patching a stub with WriteJIT while
// another goroutine installs a body is permitted (the machine is idle);
// both change the decoded tables, so both must do it under the JIT lock.
// Run under -race.
func TestWriteJITConcurrentWithInstall(t *testing.T) {
	m := vm.MustNew()
	stub := installBody(t, m, 1)
	for round := 0; round < 20; round++ {
		// Execute the stub so there is decoded state to invalidate.
		if got, err := m.Call(stub); err != nil || got != uint64(round+2) {
			t.Fatalf("round %d: stub returned %d, %v", round, got, err)
		}
		patch, code := bodyCode(t, round+2), bodyCode(t, 100)
		var wg sync.WaitGroup
		var body uint64
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			if body, err = m.InstallJIT(len(code), func(uint64) ([]byte, error) { return code, nil }); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := m.WriteJIT(stub, patch); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got, err := m.Call(body); err != nil || got != 101 {
			t.Fatalf("round %d: installed body returned %d, %v", round, got, err)
		}
		if err := m.FreeJIT(body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInstallLeavesOtherDecodesInPlace: installing body B must not cost an
// already-executed body A its decoded instructions, even when the two
// share a page; rewriting A itself must.
func TestInstallLeavesOtherDecodesInPlace(t *testing.T) {
	m := vm.MustNew()
	a := installBody(t, m, 1)
	if _, err := m.Call(a); err != nil {
		t.Fatal(err)
	}
	warm := m.Decodes()
	if warm == 0 {
		t.Fatal("first execution decoded nothing")
	}

	b := installBody(t, m, 2)
	if a>>12 != b>>12 {
		t.Fatalf("bodies at %#x and %#x do not share a page", a, b)
	}
	if got, err := m.Call(a); err != nil || got != 2 {
		t.Fatalf("a returned %d, %v", got, err)
	}
	if d := m.Decodes(); d != warm {
		t.Errorf("executing a after installing b decoded %d instructions, want 0", d-warm)
	}

	if got, err := m.Call(b); err != nil || got != 3 {
		t.Fatalf("b returned %d, %v", got, err)
	}
	warm = m.Decodes()
	if err := m.WriteJIT(a, bodyCode(t, 7)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Call(a); err != nil || got != 8 {
		t.Fatalf("rewritten a returned %d, %v", got, err)
	}
	if m.Decodes() == warm {
		t.Error("rewritten body was served from stale decodes")
	}
	warm = m.Decodes()
	if got, err := m.Call(b); err != nil || got != 3 {
		t.Fatalf("b returned %d, %v", got, err)
	}
	if d := m.Decodes(); d != warm {
		t.Errorf("executing b after rewriting a decoded %d instructions, want 0", d-warm)
	}
	if err := m.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestWriteIntoRunTrimsIt: rewriting one instruction in the middle of a
// decoded straight-line run re-decodes that instruction alone. The part
// of the run before it is trimmed to end there, the part after it is a
// run already, and the next call executes the new instruction.
func TestWriteIntoRunTrimsIt(t *testing.T) {
	// The 10-byte movi keeps the patch out of reach of the instructions
	// before it: a write drops every record within isa.MaxInstrLen-1
	// bytes below it.
	const src = "f:\n movi r0, 1\n movi r1, 0x1111111111111111\n addi r0, %d\n addi r0, 8\n addi r0, 16\n ret\n"
	asmAt := func(k int) []byte {
		p, err := asm.AssembleAt(fmt.Sprintf(src, k), vm.JITBase, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.Code
	}
	m := vm.MustNew()
	code := asmAt(4)
	f, err := m.InstallJIT(len(code), func(uint64) ([]byte, error) { return code, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Call(f); err != nil || got != 29 {
		t.Fatalf("f returned %d, %v", got, err)
	}
	patched := asmAt(100)
	stream, err := isa.DecodeAll(patched, f)
	if err != nil {
		t.Fatal(err)
	}
	at := stream[2].Addr // the third instruction, addi r0, 100
	if err := m.WriteJIT(at, patched[at-f:stream[3].Addr-f]); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	warm := m.Decodes()
	if got, err := m.Call(f); err != nil || got != 125 {
		t.Fatalf("patched f returned %d, %v", got, err)
	}
	if d := m.Decodes() - warm; d != 1 {
		t.Errorf("the patched call decoded %d instructions, want the one written", d)
	}
	if err := m.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestFullPageOfOrphansStartsOver: patching and re-executing one spot
// thousands of times orphans a decoded entry each time; the page must
// leave its orphans behind rather than outgrow its 16-bit slots.
func TestFullPageOfOrphansStartsOver(t *testing.T) {
	m := vm.MustNew()
	a := installBody(t, m, 0)
	for i := 0; i < 3*4096; i++ {
		if err := m.WriteJIT(a, bodyCode(t, i%100)); err != nil {
			t.Fatal(err)
		}
		if got, err := m.Call(a); err != nil || got != uint64(i%100+1) {
			t.Fatalf("patch %d: returned %d, %v", i, got, err)
		}
	}
}

// TestPageOfChurnedBodyStaysSmall: a body installed, called and freed at
// the same address 10 000 times leaves its page holding no more records
// than the live ones plus one body — a page that fills moves its live
// records to a fresh array and leaves the orphans behind, where they used
// to pile up to 4 096 entries. With a resident neighbour on the page, so
// that the live count never reaches zero, it holds at most twice the live
// records plus a body.
func TestPageOfChurnedBodyStaysSmall(t *testing.T) {
	const body = 3 // movi, addi, ret
	// churn checks after each call that the page counts wantLive live
	// records and holds at most bound of them.
	churn := func(t *testing.T, m *vm.Machine, wantLive, bound int) {
		t.Helper()
		first := uint64(0)
		for i := 0; i < 10000; i++ {
			b := installBody(t, m, i%100)
			if first == 0 {
				first = b
			} else if b != first {
				t.Fatalf("round %d: body at %#x, first at %#x", i, b, first)
			}
			if got, err := m.Call(b); err != nil || got != uint64(i%100+1) {
				t.Fatalf("round %d: returned %d, %v", i, got, err)
			}
			if held, live := m.PageRecords(b); live != wantLive || held > bound {
				t.Fatalf("round %d: page holds %d records, %d live; want %d live, at most %d held",
					i, held, live, wantLive, bound)
			}
			if err := m.CheckRecords(); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			if err := m.FreeJIT(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("alone", func(t *testing.T) {
		m := vm.MustNew()
		churn(t, m, body, body+body)
	})
	t.Run("beside-resident", func(t *testing.T) {
		m := vm.MustNew()
		resident := installBody(t, m, 7)
		if got, err := m.Call(resident); err != nil || got != 8 {
			t.Fatalf("resident returned %d, %v", got, err)
		}
		churn(t, m, 2*body, 2*(2*body+body))
		if got, err := m.Call(resident); err != nil || got != 8 {
			t.Fatalf("resident returned %d, %v after the churn", got, err)
		}
	})
}

// TestRecordSize: an executor record fits in half a host cache line.
func TestRecordSize(t *testing.T) {
	if vm.RecordSize > 32 {
		t.Fatalf("executor record is %d bytes, want <= 32", vm.RecordSize)
	}
}

// TestAllocationCeilings pins what the collector has to look at: building
// a machine is a few dozen objects (the segments themselves hold no
// pointers) of under 2 MB together — the cache model's tag arrays and the
// one granule of code the HALT stub commits, where it used to be the 83 MB
// the machine maps — and a warm call with nothing armed allocates nothing.
func TestAllocationCeilings(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if n := testing.AllocsPerRun(3, func() {
		if _, err := vm.New(); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("vm.New makes %.0f allocations, want <= 64", n)
	}
	runtime.ReadMemStats(&after)
	// AllocsPerRun(3, f) calls f four times.
	if b := (after.TotalAlloc - before.TotalAlloc) / 4; b > 2<<20 {
		t.Errorf("vm.New allocates %d bytes, want <= 2 MB", b)
	}

	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    push r10
    movi r10, buf
    store [r10], r1
    load r0, [r10]
    add  r0, r2
    call g
    pop  r10
    ret
g:
    addi r0, 1
    ret
.data
buf: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	f := im.MustEntry("f")
	if got, err := m.Call(f, 3, 4); err != nil || got != 8 {
		t.Fatalf("f(3, 4) = %d, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.Call(f, 3, 4); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm call allocates %.0f times, want 0", n)
	}
}
