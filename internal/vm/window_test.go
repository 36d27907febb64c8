package vm_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

func segment(t *testing.T, m *vm.Machine, name string) *mem.Segment {
	t.Helper()
	for _, s := range m.Mem.Segments() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %q segment", name)
	return nil
}

// TestNewCommitsOneGranule: a fresh machine maps the full 83 MB layout and
// has committed the granule of code its HALT stub lies in.
func TestNewCommitsOneGranule(t *testing.T) {
	var mapped, committed uint64
	for _, s := range vm.MustNew().Mem.Segments() {
		mapped += s.Size
		committed += uint64(len(s.Data))
	}
	if mapped != vm.CodeSize+vm.JITSize+vm.DataSize+vm.HeapSize+vm.StackSize || committed != 64<<10 {
		t.Errorf("mapped %d bytes, committed %d; want the full layout and one granule", mapped, committed)
	}
}

// TestEverySegmentCommitsOnWrite: in each of the machine's segments a write
// far above and one far below whatever is committed land, read back, and
// leave the bytes in between zero; reads outside change nothing.
func TestEverySegmentCommitsOnWrite(t *testing.T) {
	m := vm.MustNew()
	for _, s := range m.Mem.Segments() {
		mid := s.Base + s.Size/2
		for i, addr := range []uint64{mid, s.End() - 64<<10 - 8, s.Base + 64<<10 + 8} {
			if got, err := m.Mem.Read64(addr); err != nil || got != 0 {
				t.Fatalf("%s: Read64(%#x) before any write = %#x, %v", s.Name, addr, got, err)
			}
			n := len(s.Data)
			if _, err := m.Mem.ReadBytes(addr-32, 64); err != nil || len(s.Data) != n {
				t.Fatalf("%s: a read at %#x committed %d bytes (%v)", s.Name, addr, len(s.Data)-n, err)
			}
			if err := m.Mem.Write64(addr, uint64(i)+1); err != nil {
				t.Fatalf("%s: Write64(%#x): %v", s.Name, addr, err)
			}
			if addr < s.Lo || addr+8 > s.Lo+uint64(len(s.Data)) {
				t.Fatalf("%s: write at %#x is outside the window [%#x, +%d)", s.Name, addr, s.Lo, len(s.Data))
			}
		}
		for i, addr := range []uint64{mid, s.End() - 64<<10 - 8, s.Base + 64<<10 + 8} {
			if got, _ := m.Mem.Read64(addr); got != uint64(i)+1 {
				t.Errorf("%s: Read64(%#x) = %d, want %d", s.Name, addr, got, i+1)
			}
		}
		for _, addr := range []uint64{mid - 8, mid + 8, s.Base + s.Size/4, s.Base + 3*s.Size/4, s.End() - 8} {
			if got, err := m.Mem.Read64(addr); err != nil || got != 0 {
				t.Errorf("%s: Read64(%#x) between the writes = %#x, %v", s.Name, addr, got, err)
			}
		}
	}
}

// TestStackCommitsDownward: a recursion 8000 frames deep (64 bytes a frame)
// takes the stack through several window extensions, each of which moves
// every live frame to new storage mid-run. Each frame spills its argument
// before the call and adds it after, so a frame lost on the way would show
// in the sum.
func TestStackCommitsDownward(t *testing.T) {
	const depth = 8000
	m := vm.MustNew()
	im, err := asm.Load(m, `
rec:
    push r10
    subi r15, 48
    store [r15+16], r1
    movi r0, 0
    cmpi r1, 0
    jeq  out
    subi r1, 1
    call rec
    load r10, [r15+16]
    add  r0, r10
out:
    addi r15, 48
    pop  r10
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	stack := segment(t, m, "stack")
	if len(stack.Data) != 0 {
		t.Fatalf("stack has %d bytes committed before the first call", len(stack.Data))
	}
	got, err := m.Call(im.MustEntry("rec"), depth)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(depth * (depth + 1) / 2); got != want {
		t.Errorf("rec(%d) = %d, want %d", depth, got, want)
	}
	if hi := stack.Lo + uint64(len(stack.Data)); hi != vm.StackTop {
		t.Errorf("stack window ends at %#x, want StackTop %#x", hi, uint64(vm.StackTop))
	}
	if n := len(stack.Data); n < depth*64 || n > 4*depth*64 {
		t.Errorf("stack window is %d bytes for %d bytes of frames", n, depth*64)
	}
}

// TestGuestAccessOutsideWindow: a guest load from memory nobody wrote reads
// zero and commits nothing; a guest store there commits, and the next load
// sees it.
func TestGuestAccessOutsideWindow(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
peek:
    load r0, [r1]
    loadb r2, [r1+3]
    add  r0, r2
    ret
poke:
    store [r1], r2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	heap := segment(t, m, "heap")
	const far = vm.HeapBase + 40<<20
	if got, err := m.Call(im.MustEntry("peek"), far); err != nil || got != 0 {
		t.Fatalf("peek(far) = %#x, %v", got, err)
	}
	if len(heap.Data) != 0 {
		t.Fatalf("a guest load committed %d bytes of heap", len(heap.Data))
	}
	if _, err := m.Call(im.MustEntry("poke"), far, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if len(heap.Data) == 0 || far < heap.Lo {
		t.Fatalf("a guest store did not commit: window [%#x, +%d)", heap.Lo, len(heap.Data))
	}
	if got, err := m.Call(im.MustEntry("peek"), far); err != nil || got != 0x0102030405060708+0x05 {
		t.Fatalf("peek(far) after poke = %#x, %v", got, err)
	}
	// What is a fault stays one, committed or not.
	if _, err := m.Call(im.MustEntry("poke"), vm.HeapBase+vm.HeapSize-4, 1); !errors.Is(err, mem.ErrOutOfRange) {
		t.Errorf("store across the end of the heap: %v", err)
	}
}

// TestGuestStoreOutsideWindowIntoCode: uncommitted JIT space executes as
// NOPs (zero bytes), which are decoded and remembered like any code. A guest
// store that commits that space and puts a RET where a NOP was executed must
// drop that decode, like a store inside the window does — or the next call
// there slides down the remembered NOPs again.
func TestGuestStoreOutsideWindowIntoCode(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
pokeb:
    storeb [r1], r2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	const far = vm.JITBase + 1<<20
	m.UserStepLimit = 32
	if _, err := m.Call(far); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("running uncommitted JIT space: %v, want the step limit (a NOP sled)", err)
	}
	if n := len(segment(t, m, "jit").Data); n != 0 {
		t.Fatalf("executing uncommitted space committed %d bytes", n)
	}
	ret, err := isa.Encode(isa.MakeNone(isa.RET))
	if err != nil || len(ret) != 1 {
		t.Fatalf("RET encodes as %v, %v", ret, err)
	}
	if _, err := m.Call(im.MustEntry("pokeb"), far, uint64(ret[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(far); err != nil {
		t.Errorf("calling the RET stored at %#x: %v", uint64(far), err)
	}
}

// TestInstallPinsJIT: the first install commits the whole JIT segment, so
// that no later install moves the window under a goroutine reading a body
// installed earlier — the service reads bodies back (and the rewriter may
// trace through them) while other workers install. Run under -race.
func TestInstallPinsJIT(t *testing.T) {
	m := vm.MustNew()
	jit := segment(t, m, "jit")
	code := bodyCode(t, 41)
	first := installBody(t, m, 41)
	if uint64(len(jit.Data)) != vm.JITSize || jit.Lo != vm.JITBase {
		t.Fatalf("after the first install the JIT window is [%#x, +%d), want the whole segment", jit.Lo, len(jit.Data))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if b, err := m.Mem.ReadBytes(first, len(code)); err != nil || !bytes.Equal(b, code) {
					t.Errorf("read-back of the first body: %v, %v", b, err)
					return
				}
				if b, err := m.Mem.FetchSlice(first); err != nil || b[0] != code[0] {
					t.Errorf("fetch of the first body: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			big := make([]byte, 96<<10) // more than a granule: a window would have to grow
			for i := 0; i < 100; i++ {
				addr, err := m.InstallJIT(len(big), func(uint64) ([]byte, error) { return big, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if i%20 != g { // keep a few: the next ones land further up
					if err := m.FreeJIT(addr); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, err := m.Call(first); err != nil || got != 42 {
		t.Errorf("the first body returns %d, %v; want 42", got, err)
	}
}
