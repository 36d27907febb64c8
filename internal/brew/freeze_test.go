package brew_test

// Freeze net for the rewriter: everything one brew.Do makes observable —
// the installed bytes, the Figure-6 listing, the decision report and the
// Result's counters — is folded into one digest per corpus case and effort
// and pinned in testdata/freeze.golden. The constants were captured on the
// map-based known-world / per-pass-slice optimizer; any change to the
// rewriter's structure must reproduce them byte for byte.
//
// After a failure the component hashes on each line say what moved. To
// re-pin after a deliberate behaviour change:
//
//	go test ./internal/brew -run TestFreezeNet -update

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/minc"
	"repro/internal/oracle"
	"repro/internal/vm"
)

var freezeUpdate = flag.Bool("update", false, "rewrite testdata/freeze.golden instead of checking it")

const freezeGolden = "testdata/freeze.golden"

var bothEfforts = []brew.Effort{brew.EffortFull, brew.EffortQuick}

// frozenCase is one corpus case, optionally with its configuration tweaked
// to reach rewriter paths the plain corpus does not (injected handler
// brackets).
type frozenCase struct {
	oracle.Case
	tweak func(cfg *brew.Config, inst *oracle.Instance)
}

// paperCases is how many leading corpus cases are the paper's guests (three
// stencil kernels, two PGAS sums, the X2 chain); generated programs follow.
const paperCases = 6

// corpus returns oracle.CorpusCases(), then every paper guest again with
// all four handlers armed (the handler address is never executed here, any
// address outside the JIT space does), then a reduction the vectorizer
// fires on.
func corpus(t testing.TB) []frozenCase {
	t.Helper()
	cases, err := oracle.CorpusCases()
	if err != nil {
		t.Fatal(err)
	}
	var out []frozenCase
	for _, c := range cases {
		out = append(out, frozenCase{Case: c})
	}
	for _, c := range cases[:paperCases] {
		c.Name += "+handlers"
		out = append(out, frozenCase{c, func(cfg *brew.Config, inst *oracle.Instance) {
			cfg.EntryHandler, cfg.ExitHandler = inst.Fn, inst.Fn
			cfg.LoadHandler, cfg.StoreHandler = inst.Fn, inst.Fn
		}})
	}
	return append(out, frozenCase{Case: oracle.Case{Name: "vsum+vectorize", Build: buildVsum}})
}

// buildVsum is experiment X6's guest: a reduction whose trip count is known,
// so the trace unrolls it fully and the vectorizer has lanes to group.
func buildVsum() (*oracle.Instance, error) {
	const n = 64
	m, err := vm.New()
	if err != nil {
		return nil, err
	}
	l, err := minc.CompileAndLink(m, `
double vsum(double *a, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += a[i]; }
    return s;
}
`, nil)
	if err != nil {
		return nil, err
	}
	fn, err := l.FuncAddr("vsum")
	if err != nil {
		return nil, err
	}
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	cfg.Vectorize = true
	return &oracle.Instance{M: m, Fn: fn, Cfg: cfg, Args: []uint64{0, n}}, nil
}

// request builds the case's brew request at one effort.
func (c frozenCase) request(inst *oracle.Instance, effort brew.Effort) *brew.Request {
	cfg := inst.Cfg.Clone()
	cfg.Effort = effort
	if c.tweak != nil {
		c.tweak(cfg, inst)
	}
	return &brew.Request{Config: cfg, Fn: inst.Fn, Args: inst.Args, FArgs: inst.FArgs}
}

// build constructs the case's machine.
func (c frozenCase) build(t testing.TB) *oracle.Instance {
	t.Helper()
	inst, err := c.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", c.Name, err)
	}
	return inst
}

// installed reads back the image a rewrite left in the machine's JIT space.
func installed(t testing.TB, inst *oracle.Instance, res *brew.Result) []byte {
	t.Helper()
	b, err := inst.M.Mem.ReadBytes(res.Addr, res.CodeSize)
	if err != nil {
		t.Fatalf("reading installed image: %v", err)
	}
	return append([]byte(nil), b...)
}

// frozenRun is one corpus case rewritten at one effort. A case's machine
// serves both efforts, full first; further rewrites of the same request
// land beside the first. A refusal is part of the pinned behaviour, so it
// is recorded, not failed.
type frozenRun struct {
	c      frozenCase
	effort brew.Effort
	inst   *oracle.Instance
	out    *brew.Outcome // nil when the rewriter refused
	err    error
	img    []byte
}

func newFrozenRun(t testing.TB, c frozenCase, inst *oracle.Instance, effort brew.Effort) *frozenRun {
	r := &frozenRun{c: c, effort: effort, inst: inst}
	r.out, r.err = r.again()
	if r.err == nil {
		r.img = installed(t, r.inst, r.out.Result)
	}
	return r
}

func (r *frozenRun) name() string { return fmt.Sprintf("%s/%s", r.c.Name, r.effort) }

// again rewrites the run's request once more on its machine.
func (r *frozenRun) again() (*brew.Outcome, error) {
	return brew.Do(r.inst.M, r.c.request(r.inst, r.effort))
}

// frozenPass is what one pass over the corpus found. Building the machines
// is most of what the freeze tests cost, so the pass runs once per test
// binary and does every check that needs only one machine at a time; the
// tests report its findings. Machines are not kept: 42 idle address spaces
// would dominate the heap of every later test.
var frozenPass struct {
	once     sync.Once
	lines    []string // the freeze net, one line per run
	bases    []string // findings of the two-base check
	external int      // runs whose image depends on its address
}

func runFrozenPass(t testing.TB) {
	t.Helper()
	frozenPass.once.Do(func() {
		p := &frozenPass
		for _, c := range corpus(t) {
			inst := c.build(t)
			for _, effort := range bothEfforts {
				r := newFrozenRun(t, c, inst, effort)
				p.lines = append(p.lines, r.line())

				// The same request again, beside the first image.
				second, err := r.again()
				switch {
				case (err == nil) != (r.err == nil):
					p.bases = append(p.bases, fmt.Sprintf("%s: second rewrite: %v, first: %v", r.name(), err, r.err))
				case err == nil:
					p.bases = append(p.bases, r.sameRewrite(t, "second rewrite", second)...)
					if !bytes.Equal(r.img, installed(t, r.inst, second.Result)) {
						p.external++
					}
				}
			}
		}
	})
}

func short(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:12] }

// line is the run's pinned line: the whole-outcome digest first, then the
// per-component hashes and counters that make a mismatch readable.
func (r *frozenRun) line() string {
	if r.err != nil {
		return fmt.Sprintf("%s refused: %s", r.name(), brew.DegradeReason(r.err))
	}
	res := r.out.Result
	listing, report := res.Listing(), res.Report.Text()
	h := sha256.New()
	h.Write(r.img)
	h.Write([]byte(listing))
	h.Write([]byte(report))
	fmt.Fprintf(h, "%d %d %d %#x", res.Blocks, res.TracedInstrs, res.CodeSize, res.Addr)
	return fmt.Sprintf("%s %x bytes=%s listing=%s report=%s blocks=%d traced=%d size=%d",
		r.name(), h.Sum(nil), short(r.img), short([]byte(listing)), short([]byte(report)),
		res.Blocks, res.TracedInstrs, res.CodeSize)
}

func TestFreezeNet(t *testing.T) {
	runFrozenPass(t)
	got := strings.Join(frozenPass.lines, "\n") + "\n"
	if *freezeUpdate {
		if err := os.WriteFile(freezeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(freezeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("freeze net has %d lines, golden %d", len(gl), len(wl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
		}
	}
}

// diffModuloBase checks that two images of one rewrite, installed at bases
// a and b, are the same code: instruction for instruction identical bytes,
// except that a JMP/JCC/CALL whose target lies outside the body may differ
// inside its rel32 field — and must then aim at the same absolute target.
func diffModuloBase(imgA []byte, baseA uint64, imgB []byte, baseB uint64) error {
	if len(imgA) != len(imgB) {
		return fmt.Errorf("sizes differ: %d vs %d", len(imgA), len(imgB))
	}
	size := uint64(len(imgA))
	for off := 0; off < len(imgA); {
		ia, err := isa.Decode(imgA[off:], baseA+uint64(off))
		if err != nil {
			return fmt.Errorf("image A at +%d: %v", off, err)
		}
		ib, err := isa.Decode(imgB[off:], baseB+uint64(off))
		if err != nil {
			return fmt.Errorf("image B at +%d: %v", off, err)
		}
		if ia.Len != ib.Len || ia.Op != ib.Op {
			return fmt.Errorf("+%d: %s vs %s", off, ia, ib)
		}
		ba, bb := imgA[off:off+ia.Len], imgB[off:off+ib.Len]
		switch f := isa.Info(ia.Op).Format; {
		case f != isa.FRel && f != isa.FCC:
			if !bytes.Equal(ba, bb) {
				return fmt.Errorf("+%d: %s: bytes differ outside a branch", off, ia)
			}
		case ia.Target()-baseA < size: // intra-body: same displacement
			if !bytes.Equal(ba, bb) || ib.Target()-baseB != ia.Target()-baseA {
				return fmt.Errorf("+%d: intra-body %s encoded differently at the two bases", off, ia)
			}
		default: // leaves the body: only the rel32 field may move
			n := ia.Len - 4
			if !bytes.Equal(ba[:n], bb[:n]) || ia.Target() != ib.Target() {
				return fmt.Errorf("+%d: external %s vs %s", off, ia, ib)
			}
		}
		off += ia.Len
	}
	return nil
}

// positionFree renders what must not depend on where a rewrite landed.
func positionFree(res *brew.Result) string {
	rep := *res.Report
	rep.Addr = 0
	return res.Listing() + rep.Text()
}

// sameRewrite checks that out is the run's first rewrite moved to another
// address — same listing and report, same image modulo base — and returns
// what it found wrong.
func (r *frozenRun) sameRewrite(t testing.TB, what string, out *brew.Outcome) (findings []string) {
	t.Helper()
	if out.Addr == r.out.Addr {
		return []string{fmt.Sprintf("%s: %s landed on the first image at %#x", r.name(), what, out.Addr)}
	}
	if positionFree(out.Result) != positionFree(r.out.Result) {
		findings = append(findings, fmt.Sprintf("%s: %s: listing or report differs from the first rewrite", r.name(), what))
	}
	if err := diffModuloBase(r.img, r.out.Addr, installed(t, r.inst, out.Result), out.Addr); err != nil {
		findings = append(findings, fmt.Sprintf("%s: %s: %v", r.name(), what, err))
	}
	return findings
}

// TestLayoutTwoBases: every corpus rewrite installed a second time on its
// machine — at a different JIT address — differs from the first only inside
// rel32 fields that leave the body, and at least one case has such a field
// (or the check proves nothing).
func TestLayoutTwoBases(t *testing.T) {
	runFrozenPass(t)
	for _, f := range frozenPass.bases {
		t.Error(f)
	}
	if frozenPass.external == 0 {
		t.Error("no corpus image has a branch leaving its body: the two-base check is vacuous")
	}
}
