package vm_test

// Freeze net for the emulator: everything a guest run makes observable —
// Stats and the per-opcode counts, the cache model's per-level counters,
// the register file, guest memory, fault texts, and (with every hook
// armed) the ordered callback sequence with the Stats each callback sees —
// is folded into one digest per workload and pinned below. The constants
// were captured on the map-based fetch / Step-in-a-loop emulator; any
// change to the emulator's structure must reproduce them byte for byte.
//
// To see what moved after a failure: go test ./internal/vm -run Freeze -freeze.print

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/minc"
	"repro/internal/oracle"
	"repro/internal/pgas"
	"repro/internal/stencil"
	"repro/internal/vm"
)

var freezePrint = flag.Bool("freeze.print", false, "print the freeze-net table instead of checking it")

// frozenRun is one guest workload on a freshly built machine. run drives
// the emulator (one or more top-level calls) and returns the result bits;
// callee is an address worth a FuncCost in the armed replay (0: none).
type frozenRun struct {
	m      *vm.Machine
	run    func() (uint64, error)
	callee uint64
}

type frozenCase struct {
	name  string
	build func() (*frozenRun, error)
}

// frozen is one pinned replay: the visible counters are there so a failure
// says roughly what moved; the digest covers everything.
type frozen struct {
	instr, cycles uint64
	digest        string
}

const (
	freezeXS, freezeYS = 16, 12
	freezeIters        = 2
)

func stencilCase(name string, run func(w *stencil.Workload) (callee uint64, do func() (float64, error), err error)) frozenCase {
	return frozenCase{name, func() (*frozenRun, error) {
		w, err := stencil.New(vm.MustNew(), freezeXS, freezeYS)
		if err != nil {
			return nil, err
		}
		callee, do, err := run(w)
		if err != nil {
			return nil, err
		}
		return &frozenRun{m: w.M, callee: callee, run: func() (uint64, error) {
			v, err := do()
			return math.Float64bits(v), err
		}}, nil
	}}
}

func pgasCase(name string, specialized bool) frozenCase {
	return frozenCase{name, func() (*frozenRun, error) {
		s, err := pgas.New(vm.MustNew(), 4, 16, 1)
		if err != nil {
			return nil, err
		}
		if err := s.Fill(func(i int) float64 { return float64(i%9) * 0.5 }); err != nil {
			return nil, err
		}
		fn := s.GSum
		if specialized {
			res, err := s.SpecializeSum()
			if err != nil {
				return nil, err
			}
			fn = res.Addr
		}
		return &frozenRun{m: s.M, callee: s.PgasGet, run: func() (uint64, error) {
			v, err := s.SumWith(fn, s.PgasGet, 3, s.Len()-5)
			return math.Float64bits(v), err
		}}, nil
	}}
}

const freezeChainSrc = `
double leaf(double x, double y) { return x * y + 1.0; }
double mid(double x, double y) { return leaf(x, y) + leaf(y, x); }
double chain(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += mid(a[i], s); }
    return s;
}
`

func chainCase(name string, rewrite bool) frozenCase {
	return frozenCase{name, func() (*frozenRun, error) {
		const n = 16
		m := vm.MustNew()
		l, err := minc.CompileAndLink(m, freezeChainSrc, nil)
		if err != nil {
			return nil, err
		}
		arr, err := m.AllocHeap(n * 8)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := m.Mem.WriteF64(arr+uint64(8*i), float64(i%7)*0.25); err != nil {
				return nil, err
			}
		}
		fn, err := l.FuncAddr("chain")
		if err != nil {
			return nil, err
		}
		mid, err := l.FuncAddr("mid")
		if err != nil {
			return nil, err
		}
		if rewrite {
			cfg := brew.NewConfig()
			cfg.SetFuncOpts(fn, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
			out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
			if err != nil {
				return nil, err
			}
			fn = out.Addr
		}
		return &frozenRun{m: m, callee: mid, run: func() (uint64, error) {
			v, err := m.CallFloat(fn, []uint64{arr, n}, nil)
			return math.Float64bits(v), err
		}}, nil
	}}
}

// generatedCase runs the original function of the seed'th oracle program
// on three argument vectors.
func generatedCase(seed int64) frozenCase {
	return frozenCase{fmt.Sprintf("gen-%d", seed), func() (*frozenRun, error) {
		c := oracle.Generated(seed)
		inst, err := c.Build()
		if err != nil {
			return nil, err
		}
		m := inst.M
		m.UserStepLimit = 1 << 20
		return &frozenRun{m: m, run: func() (uint64, error) {
			r := rand.New(rand.NewSource(seed))
			var acc uint64
			for i := 0; i < 3; i++ {
				args, _ := c.NewArgs(r)
				v, err := m.Call(inst.Fn, args...)
				if err != nil {
					return acc, err
				}
				acc = acc*31 + v
			}
			return acc, nil
		}}, nil
	}}
}

// everyOpcodeSrc executes every VX64 opcode at least once, HALT through
// the top-level return and BRK excepted (BRK ends a Run;
// TestRunEqualsStepsAcrossBreak covers it).
const everyOpcodeSrc = `
main:
    push  r10
    push  r11
    nop
    movi  r10, buf
    movi  r1, 0x1122334455667788
    mov   r2, r1
    store [r10], r1
    storeb [r10+8], r2
    load  r3, [r10]
    loadb r4, [r10+8]
    lea   r5, [r10+r4*2+24]
    add   r3, r4
    sub   r3, r2
    movi  r6, 7
    imul  r3, r6
    movi  r7, 3
    idiv  r3, r7
    irem  r6, r7
    and   r3, r1
    or    r3, r6
    xor   r3, r4
    movi  r7, 5
    shl   r3, r7
    shr   r3, r7
    sar   r3, r7
    cmp   r3, r4
    setlt r8
    test  r3, r3
    setne r9
    addi  r3, 100000
    subi  r3, 9
    imuli r3, -3
    andi  r3, 0xffffff
    ori   r3, 0x10
    xori  r3, 0x55
    shli  r3, 4
    shri  r3, 2
    sari  r3, 1
    cmpi  r3, 77
    jeq   skip
    neg   r3
    not   r3
skip:
    pushf
    cmpi  r3, 0
    popf
    setgt r8
    jmp   over
    movi  r3, 0
over:
    movi  r6, leaf
    callr r6
    call  leaf
    movi  r6, cont
    jmpr  r6
    movi  r3, 0
cont:
    fmovi f1, 2.5
    fmov  f2, f1
    fstore [r10+16], f2
    fload f3, [r10+16]
    fadd  f3, f1
    fsub  f3, f2
    fmul  f3, f1
    fdiv  f3, f2
    fneg  f3
    fsqrt f4, f1
    fcmp  f3, f4
    setb  r9
    cvtif f5, r7
    cvtfi r11, f1
    fmovfi r6, f5
    fmovif f6, r6
    vload v0, [r10+32]
    vbcast v1, f1
    vadd  v0, v1
    vsub  v0, v1
    vmul  v0, v1
    vstore [r10+64], v0
    vhadd f0, v0
    cvtfi r0, f0
    add   r0, r3
    add   r0, r8
    add   r0, r9
    add   r0, r11
    pop   r11
    pop   r10
    ret
leaf:
    addi  r3, 1
    ret
.data
buf:
    .quad 0, 0, 0, 0
    .double 1.0, 2.0, 3.0, 4.0
    .space 32
`

func everyOpcodeCase() frozenCase {
	return frozenCase{"every-opcode", func() (*frozenRun, error) {
		m := vm.MustNew()
		im, err := asm.Load(m, everyOpcodeSrc)
		if err != nil {
			return nil, err
		}
		leaf, err := im.Entry("leaf")
		if err != nil {
			return nil, err
		}
		main := im.MustEntry("main")
		return &frozenRun{m: m, callee: leaf, run: func() (uint64, error) { return m.Call(main) }}, nil
	}}
}

func frozenCases() []frozenCase {
	cases := []frozenCase{
		stencilCase("E1a", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			return w.Apply, func() (float64, error) { return w.RunSweeps(w.Apply, false, freezeIters) }, nil
		}),
		stencilCase("E1b", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			return w.ApplyManual, func() (float64, error) { return w.RunSweeps(w.ApplyManual, false, freezeIters) }, nil
		}),
		stencilCase("E1c", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			res, err := w.RewriteApply()
			if err != nil {
				return 0, nil, err
			}
			return res.Addr, func() (float64, error) { return w.RunSweeps(res.Addr, false, freezeIters) }, nil
		}),
		stencilCase("E2a", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			return w.ApplyGrouped, func() (float64, error) { return w.RunSweeps(w.ApplyGrouped, true, freezeIters) }, nil
		}),
		stencilCase("E2b", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			res, err := w.RewriteApplyGrouped()
			if err != nil {
				return 0, nil, err
			}
			return res.Addr, func() (float64, error) { return w.RunSweeps(res.Addr, true, freezeIters) }, nil
		}),
		stencilCase("E3a", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			return 0, func() (float64, error) { return w.RunSweepsInlined(w.SweepInlined, freezeIters) }, nil
		}),
		stencilCase("E3b", func(w *stencil.Workload) (uint64, func() (float64, error), error) {
			res, err := w.RewriteSweep()
			if err != nil {
				return 0, nil, err
			}
			return 0, func() (float64, error) { return w.RunRewrittenSweeps(res.Addr, freezeIters) }, nil
		}),
		pgasCase("pgas-sum", false),
		pgasCase("pgas-sum-spec", true),
		chainCase("x2-chain", false),
		chainCase("x2-chain-inlined", true),
	}
	for seed := int64(2); seed < 12; seed++ {
		cases = append(cases, generatedCase(seed))
	}
	return append(cases, everyOpcodeCase())
}

// digester folds values into a SHA-256.
type digester struct {
	h hash.Hash
	n uint64 // events folded by ev
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// ev folds one callback: its kind, its arguments, and the counters the
// callback could read at that moment, which is what pins where in the
// instruction each hook fires (Stats bump -> OnStore -> watches -> cache
// -> region costs -> OnStoreValue).
func (d *digester) ev(m *vm.Machine, kind byte, args ...uint64) {
	d.n++
	d.u64(uint64(kind))
	d.u64(args...)
	d.u64(m.Stats.Instructions, m.Stats.Cycles, m.Stats.Loads, m.Stats.Stores, m.Stats.Calls, m.CPU.PC)
}

// liveMemory folds the guest memory a run can have touched: the static
// code, the JIT area in use, the allocated globals and heap, and the top of
// the stack.
func (d *digester) liveMemory(t *testing.T, m *vm.Machine) {
	t.Helper()
	for _, r := range []struct{ base, n uint64 }{
		{vm.CodeBase, m.CodeAlloc.LiveBytes()},
		{vm.JITBase, 64 << 10},
		{vm.DataBase, m.DataAlloc.LiveBytes()},
		{vm.HeapBase, m.HeapAlloc.LiveBytes()},
		{vm.StackTop - 64<<10, 64 << 10},
	} {
		b, err := m.Mem.Slice(r.base, int(r.n), 0)
		if err != nil {
			t.Fatal(err)
		}
		d.h.Write(b)
	}
}

// machineState folds everything the run left behind.
func (d *digester) machineState(t *testing.T, m *vm.Machine) {
	t.Helper()
	s := &m.Stats
	d.u64(s.Instructions, s.Cycles, s.Loads, s.Stores, s.Branches, s.TakenBranches, s.Calls)
	d.u64(s.OpCount[:]...)
	if m.Cache != nil {
		for _, lv := range m.Cache.Stats() {
			d.str(lv.Name)
			d.u64(lv.Hits, lv.Misses, lv.Evictions)
		}
	}
	d.cpu(&m.CPU)
	d.liveMemory(t, m)
}

func (d *digester) cpu(c *vm.CPU) {
	d.u64(c.R[:]...)
	for _, f := range c.F {
		d.u64(math.Float64bits(f))
	}
	for _, v := range c.V {
		for _, f := range v {
			d.u64(math.Float64bits(f))
		}
	}
	d.u64(c.Flags.Bits(), c.PC)
}

// armAll arms every hook the emulator has and routes each callback into d.
// It returns a function folding the hooks' own end state.
func armAll(m *vm.Machine, d *digester, callee uint64) (finish func()) {
	m.OnLoad = func(addr uint64, size int) { d.ev(m, 'L', addr, uint64(size)) }
	m.OnStore = func(addr uint64, size int) { d.ev(m, 'S', addr, uint64(size)) }
	m.OnStoreValue = func(addr uint64, size int, val uint64) { d.ev(m, 'V', addr, uint64(size), val) }
	m.OnCall = func(target uint64, cpu *vm.CPU) { d.ev(m, 'C', target, cpu.R[1], cpu.R[isa.SP]) }
	all := m.AddWatch(0, math.MaxInt64, func(w *vm.Watch, addr uint64, size int) {
		d.ev(m, 'W', addr, uint64(size))
	})
	// A watch that removes itself from inside the store path on its third
	// hit: the armed state changes under the running instruction.
	hits := 0
	m.AddWatch(0, math.MaxInt64, func(w *vm.Watch, addr uint64, size int) {
		d.ev(m, 'w', addr, uint64(size))
		if hits++; hits == 3 {
			m.RemoveWatch(w)
		}
	})
	rc := &vm.RegionCost{Base: vm.HeapBase, End: vm.HeapBase + vm.HeapSize, Extra: 3}
	m.RegionCosts = append(m.RegionCosts, rc)
	if callee != 0 {
		m.FuncCost[callee] += 7
	}
	p := vm.NewProfiler(61, nil)
	p.OnSample = func(pc uint64) { d.ev(m, 'P', pc) }
	m.AttachProfiler(p)
	return func() {
		d.u64(rc.Count, p.TotalSamples(), uint64(len(m.Watches())))
		d.str(p.FoldedStacks())
		for _, r := range m.RegionCosts {
			d.u64(r.Count)
		}
		m.RemoveWatch(all)
	}
}

// replay builds the case and runs it, armed or not, and returns the pinned
// summary.
func replay(t *testing.T, c frozenCase, armed bool) frozen {
	t.Helper()
	fr, err := c.build()
	if err != nil {
		t.Fatalf("%s: build: %v", c.name, err)
	}
	d := newDigester()
	finish := func() {}
	if armed {
		finish = armAll(fr.m, d, fr.callee)
	}
	i0, c0 := fr.m.Stats.Instructions, fr.m.Stats.Cycles
	ret, err := fr.run()
	d.u64(ret)
	if err != nil {
		d.str(err.Error())
	}
	finish()
	d.u64(d.n)
	d.machineState(t, fr.m)
	return frozen{fr.m.Stats.Instructions - i0, fr.m.Stats.Cycles - c0, d.sum()}
}

func TestFreezeNet(t *testing.T) {
	cases := frozenCases()
	if *freezePrint {
		for _, c := range cases {
			p, a := replay(t, c, false), replay(t, c, true)
			fmt.Printf("\t%q: {\n\t\t{%d, %d, %q},\n\t\t{%d, %d, %q},\n\t},\n",
				c.name, p.instr, p.cycles, p.digest, a.instr, a.cycles, a.digest)
		}
		return
	}
	if len(cases) != len(frozenGolden) {
		t.Errorf("%d cases, %d goldens", len(cases), len(frozenGolden))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := frozenGolden[c.name]
			if !ok {
				t.Fatal("no golden")
			}
			if got := replay(t, c, false); got != want[0] {
				t.Errorf("unarmed: got %+v, want %+v", got, want[0])
			}
			if got := replay(t, c, true); got != want[1] {
				t.Errorf("armed:   got %+v, want %+v", got, want[1])
			}
		})
	}
}

// TestFreezeFaultTexts pins the text of every fault the emulator raises.
// HERE in a wanted text stands for the address of the source's "here" label.
func TestFreezeFaultTexts(t *testing.T) {
	const blob = 0x10ff00 // a spot in the code segment no test program reaches
	poke := func(addr uint64, b ...byte) func(m *vm.Machine) {
		return func(m *vm.Machine) {
			if err := m.Mem.WriteBytes(addr, b); err != nil {
				panic(err)
			}
			m.InvalidateICache()
		}
	}
	mapExtra := func(name string, perm mem.Perm) func(m *vm.Machine) {
		return func(m *vm.Machine) {
			if _, err := m.Mem.Map(name, 0x6000_0000, 4096, perm); err != nil {
				panic(err)
			}
		}
	}
	cases := []struct {
		name, src string
		prep      func(m *vm.Machine)
		args      []uint64
		want      string
	}{
		{name: "divide", src: "f:\n movi r0, 1\n movi r2, 0\nhere:\n idiv r0, r2\n ret\n",
			want: "vm: at pc=HERE: isa: integer division by zero"},
		{name: "remainder", src: "f:\n movi r0, 1\n movi r2, 0\nhere:\n irem r0, r2\n ret\n",
			want: "vm: at pc=HERE: isa: integer division by zero"},
		{name: "load-unmapped", src: "f:\n movi r1, 0x50\nhere:\n load r0, [r1]\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "loadb-unmapped", src: "f:\n movi r1, 0x50\nhere:\n loadb r0, [r1]\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "store-unmapped", src: "f:\n movi r1, 0x50\nhere:\n store [r1], r0\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "storeb-unmapped", src: "f:\n movi r1, 0x50\nhere:\n storeb [r1], r0\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "fload-unmapped", src: "f:\n movi r1, 0x50\nhere:\n fload f0, [r1]\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "fstore-unmapped", src: "f:\n movi r1, 0x50\nhere:\n fstore [r1], f0\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x50"},
		{name: "load-crosses-end", src: "f:\nhere:\n load r0, [r1]\n ret\n", args: []uint64{vm.DataBase + vm.DataSize - 4},
			want: "vm: at pc=HERE: mem: access crosses segment end: 0xbffffc+8 in \"data\""},
		{name: "store-crosses-end", src: "f:\nhere:\n store [r1], r0\n ret\n", args: []uint64{vm.HeapBase + vm.HeapSize - 1},
			want: "vm: at pc=HERE: mem: access crosses segment end: 0x4ffffff+8 in \"heap\""},
		{name: "vload-past-end", src: "f:\nhere:\n vload v0, [r1]\n ret\n", args: []uint64{vm.DataBase + vm.DataSize - 16},
			want: "vm: at pc=HERE: mem: unmapped address: 0xc00000"},
		{name: "vstore-crosses-end", src: "f:\nhere:\n vstore [r1], v0\n ret\n", args: []uint64{vm.DataBase + vm.DataSize - 20},
			want: "vm: at pc=HERE: mem: access crosses segment end: 0xbffffc+8 in \"data\""},
		{name: "store-readonly", src: "f:\nhere:\n store [r1], r0\n ret\n", args: []uint64{0x6000_0000},
			prep: mapExtra("rom", mem.PermRead),
			want: "vm: at pc=HERE: mem: permission denied: -w- access to \"rom\" (0x60000000, r--)"},
		{name: "load-writeonly", src: "f:\nhere:\n load r0, [r1]\n ret\n", args: []uint64{0x6000_0000},
			prep: mapExtra("wom", mem.PermWrite),
			want: "vm: at pc=HERE: mem: permission denied: r-- access to \"wom\" (0x60000000, -w-)"},
		{name: "push-overflow", src: "f:\n movi r15, 0x6f800000\nhere:\n push r0\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x6f7ffff8"},
		{name: "pushf-overflow", src: "f:\n movi r15, 0x6f800000\nhere:\n pushf\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x6f7ffff8"},
		{name: "pop-underflow", src: "f:\n movi r15, 0x70000000\nhere:\n pop r0\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x70000000"},
		{name: "popf-underflow", src: "f:\n movi r15, 0x70000000\nhere:\n popf\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x70000000"},
		{name: "call-overflow", src: "f:\n movi r15, 0x6f800000\nhere:\n call f\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x6f7ffff8"},
		{name: "ret-underflow", src: "f:\n movi r15, 0x70000000\nhere:\n ret\n",
			want: "vm: at pc=HERE: mem: unmapped address: 0x70000000"},
		{name: "fetch-unmapped", src: "f:\n movi r1, 0x50\n jmpr r1\n",
			want: "vm: at pc=0x50: mem: unmapped address: fetch 0x50"},
		{name: "fetch-noexec", src: "f:\n movi r1, 0x400000\n jmpr r1\n",
			want: "vm: at pc=0x400000: mem: permission denied: fetch from non-executable \"data\" (0x400000)"},
		{name: "undecodable", src: "f:\n movi r1, 0x10ff00\n jmpr r1\n", prep: poke(blob, 0xff),
			want: "vm: at pc=0x10ff00: isa: undecodable instruction: opcode byte 0xff at 0x10ff00"},
		{name: "bad-register", src: "f:\n movi r1, 0x10ff00\n jmpr r1\n", prep: poke(blob, byte(isa.VADD), 0x9f),
			want: "vm: at pc=0x10ff00: isa: undecodable instruction: isa: bad register: 9 in vadd at 0x10ff00"},
		{name: "truncated", src: "f:\n movi r1, 0x10ffff\n jmpr r1\n", prep: poke(vm.CodeBase+vm.CodeSize-1, byte(isa.MOVI)),
			want: "vm: at pc=0x10ffff: isa: truncated instruction: movi at 0x10ffff"},
		{name: "step-limit", src: "f:\n jmp f\n", prep: func(m *vm.Machine) { m.UserStepLimit = 100 },
			want: "vm: step limit exceeded"},
		{name: "breakpoint", src: "f:\n brk\n ret\n", want: "vm: breakpoint"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m := vm.MustNew()
			im, err := asm.Load(m, c.src)
			if err != nil {
				t.Fatal(err)
			}
			if c.prep != nil {
				c.prep(m)
			}
			_, err = m.Call(im.MustEntry("f"), c.args...)
			if err == nil {
				t.Fatal("no fault")
			}
			want := c.want
			if here, herr := im.Entry("here"); herr == nil {
				want = strings.Replace(want, "HERE", fmt.Sprintf("0x%x", here), 1)
			}
			if err.Error() != want {
				t.Errorf("fault text\n got: %s\nwant: %s", err, want)
			}
		})
	}

	// Faults outside the instruction loop.
	m := vm.MustNew()
	m.CPU.R[isa.SP] = 0x50
	if _, err := m.Call(m.HaltAddr()); err == nil || err.Error() != "mem: unmapped address: 0x48" {
		t.Errorf("call with unmapped stack: %v", err)
	}
	if _, err := m.Call(m.HaltAddr(), 1, 2, 3, 4, 5, 6, 7); err == nil ||
		err.Error() != "vm: too many arguments for register ABI: 7 int, 0 float" {
		t.Errorf("too many args: %v", err)
	}
}

// runStepSrc is the program TestRunEqualsSteps cuts at every instruction:
// calls, stack traffic, byte/word/float/vector memory, taken and untaken
// branches, an indirect jump, and flags saved and restored.
const runStepSrc = `
main:
    push  r10
    movi  r10, buf
    movi  r1, 5
    movi  r0, 0
loop:
    add   r0, r1
    store [r10], r0
    storeb [r10+9], r1
    call  bump
    subi  r1, 1
    jne   loop
    pushf
    load  r2, [r10]
    loadb r3, [r10+9]
    popf
    seteq r4
    fmovi f1, 1.5
    fstore [r10+16], f1
    fload f2, [r10+16]
    fadd  f2, f1
    vload v0, [r10]
    vadd  v0, v0
    vstore [r10+32], v0
    vhadd f0, v0
    movi  r6, done
    jmpr  r6
    movi  r0, 99
done:
    add   r0, r2
    add   r0, r4
    pop   r10
    ret
bump:
    addi  r0, 2
    ret
.data
buf:
    .quad 0, 0, 0, 0, 0, 0, 0, 0
`

// runStepMachine is one machine set up to run a program's main from
// scratch any number of times.
type runStepMachine struct {
	m               *vm.Machine
	main, bump, buf uint64
	code            []byte // the program as loaded, restored by reset
	codeBase        uint64
	d               *digester // the callback log of the current attempt
	finish          func()
}

func newRunStepMachine(t *testing.T, src string) *runStepMachine {
	t.Helper()
	m := vm.MustNew()
	im, err := asm.Load(m, src)
	if err != nil {
		t.Fatal(err)
	}
	return &runStepMachine{m: m, main: im.MustEntry("main"), bump: im.MustEntry("bump"), buf: im.MustEntry("buf"),
		code: im.Code, codeBase: im.CodeBase}
}

// reset puts the machine back to the state before the first instruction of
// main, as Machine.Call would enter it, with every hook armed or none.
func (r *runStepMachine) reset(t *testing.T, armed bool) {
	t.Helper()
	m := r.m
	m.OnLoad, m.OnStore, m.OnStoreValue, m.OnCall = nil, nil, nil, nil
	for _, w := range m.Watches() {
		m.RemoveWatch(w)
	}
	m.RegionCosts = nil
	delete(m.FuncCost, r.bump)
	m.AttachProfiler(nil)

	m.CPU = vm.CPU{}
	m.Stats = vm.Stats{}
	m.Cache.Reset()
	// A program that patched its own code gets it back, and with it a
	// cold decode; one that did not keeps its decoded records.
	if now, err := m.Mem.Slice(r.codeBase, len(r.code), 0); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(now, r.code) {
		if err := m.Mem.WriteBytes(r.codeBase, r.code); err != nil {
			t.Fatal(err)
		}
		m.InvalidateCode(r.codeBase, r.codeBase+uint64(len(r.code)))
	}
	if err := m.Mem.WriteBytes(r.buf, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(vm.StackTop-4096, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	m.CPU.R[isa.SP] = vm.StackTop - 64 - 8
	if err := m.Mem.Write64(m.CPU.R[isa.SP], m.HaltAddr()); err != nil {
		t.Fatal(err)
	}
	m.CPU.PC = r.main
	r.d, r.finish = newDigester(), func() {}
	if armed {
		r.finish = armAll(m, r.d, r.bump)
	}
}

// state digests everything Run and Step must agree on.
func (r *runStepMachine) state(t *testing.T) string {
	t.Helper()
	r.finish()
	r.d.u64(r.d.n)
	r.d.machineState(t, r.m)
	return r.d.sum()
}

// steps is what Run(n) has always been: n Steps, HALT mapped to nil and an
// exhausted budget to ErrStepLimit.
func steps(m *vm.Machine, n int) error {
	for i := 0; i < n; i++ {
		switch err := m.Step(); {
		case err == nil:
		case errors.Is(err, vm.ErrHalted):
			return nil
		default:
			return err
		}
	}
	return vm.ErrStepLimit
}

// runStepFaultSrc faults on a load from unmapped memory in the middle of
// a straight-line stretch, after a loop has run it warm.
const runStepFaultSrc = `
main:
    push  r10
    movi  r10, buf
    movi  r1, 3
    movi  r0, 0
loop:
    add   r0, r1
    store [r10], r0
    call  bump
    subi  r1, 1
    jne   loop
    movi  r2, 8
    addi  r0, 1
    load  r3, [r2]
    addi  r0, 2
    store [r10+8], r0
    pop   r10
    ret
bump:
    addi  r0, 2
    ret
.data
buf:
    .quad 0, 0, 0, 0
`

// runStepPatchSrc rewrites, by a word store and then a byte store, the
// immediate of a 10-byte movi later in the straight-line stretch the
// stores execute in, and runs the stretch twice; each pass executes what
// it has just written.
const runStepPatchSrc = `
main:
    push  r10
    movi  r1, 4
again:
    movi  r10, patch
    movi  r5, 0x2222
    store [r10+2], r5
    addi  r1, 7
    storeb [r10+3], r1
    addi  r1, 1
patch:
    movi  r0, 0x1111111111111111
    add   r0, r1
    call  bump
    subi  r1, 10
    cmpi  r1, 1
    jge   again
    movi  r10, buf
    store [r10], r0
    pop   r10
    ret
bump:
    addi  r0, 2
    ret
.data
buf:
    .quad 0, 0, 0, 0
`

// runStepLongSrc has one straight-line stretch of 24 instructions between
// two loops, so most cuts land inside it.
var runStepLongSrc = `
main:
    movi  r1, 2
    movi  r0, 0
head:
    addi  r0, 1
    subi  r1, 1
    jne   head
    movi  r10, buf
` + strings.Repeat(`    addi  r0, 3
    store [r10], r0
    load  r2, [r10]
    imul  r0, r2
    fmovi f1, 0.5
    fadd  f0, f1
`, 4) + `    movi  r1, 2
tail:
    call  bump
    subi  r1, 1
    jne   tail
    ret
bump:
    addi  r0, 2
    ret
.data
buf:
    .quad 0, 0, 0, 0
`

// TestRunEqualsSteps cuts each program at every instruction count n and
// checks that Run(n) and n calls of Step leave the same machine behind —
// registers, flags, PC, Stats, cache counters, memory and, with every hook
// armed, the same callback sequence — and return the same error. Besides
// the mixed program, the cuts fall inside a straight-line stretch that
// faults half-way, one that rewrites a later instruction of itself, and a
// long one.
func TestRunEqualsSteps(t *testing.T) {
	programs := []struct{ name, src string }{
		{"mixed", runStepSrc},
		{"fault-mid-run", runStepFaultSrc},
		{"store-into-own-run", runStepPatchSrc},
		{"long-run", runStepLongSrc},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			for _, armed := range []bool{false, true} {
				a, b := newRunStepMachine(t, p.src), newRunStepMachine(t, p.src)
				// A few cuts past the end too: both must stay put on HALT
				// or on the fault.
				for n, ended := 1, 0; ended < 3; n++ {
					if n > 500 {
						t.Fatal("program did not end")
					}
					a.reset(t, armed)
					b.reset(t, armed)
					errRun, errStep := a.m.Run(int64(n)), steps(b.m, n)
					if fmt.Sprint(errRun) != fmt.Sprint(errStep) {
						t.Fatalf("armed=%v n=%d: Run -> %v, Steps -> %v", armed, n, errRun, errStep)
					}
					if sa, sb := a.state(t), b.state(t); sa != sb {
						t.Fatalf("armed=%v n=%d: Run and Step diverge (pc 0x%x vs 0x%x, instr %d vs %d, cycles %d vs %d)",
							armed, n, a.m.CPU.PC, b.m.CPU.PC, a.m.Stats.Instructions, b.m.Stats.Instructions,
							a.m.Stats.Cycles, b.m.Stats.Cycles)
					}
					if !errors.Is(errRun, vm.ErrStepLimit) {
						ended++
					}
				}
			}
		})
	}
}

// TestRunEqualsStepsAcrossBreak: BRK ends a Run with the PC already past
// it, and both ways of driving the machine resume to the same end state.
func TestRunEqualsStepsAcrossBreak(t *testing.T) {
	const src = "main:\n movi r0, 7\n brk\n call bump\n ret\nbump:\n addi r0, 2\n ret\n.data\nbuf: .space 64\n"
	a, b := newRunStepMachine(t, src), newRunStepMachine(t, src)
	a.reset(t, true)
	b.reset(t, true)
	for leg, want := range []error{vm.ErrBreak, nil} {
		errRun, errStep := a.m.Run(100), steps(b.m, 100)
		if !errors.Is(errRun, want) || errRun != errStep {
			t.Fatalf("leg %d: Run -> %v, Steps -> %v, want %v", leg, errRun, errStep, want)
		}
		if a.m.CPU != b.m.CPU || a.m.Stats != b.m.Stats {
			t.Fatalf("leg %d: Run and Step diverge", leg)
		}
	}
	if sa, sb := a.state(t), b.state(t); sa != sb {
		t.Fatal("Run and Step diverge across BRK")
	}
	if a.m.CPU.R[0] != 9 {
		t.Errorf("r0 = %d, want 9", a.m.CPU.R[0])
	}
}

// TestEveryOpcodeCovered keeps everyOpcodeSrc honest as the ISA grows.
func TestEveryOpcodeCovered(t *testing.T) {
	fr, err := everyOpcodeCase().build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.run(); err != nil {
		t.Fatal(err)
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if fr.m.Stats.OpCount[op] == 0 && op != isa.BRK {
			t.Errorf("%s never executed", op)
		}
	}
}
