package brew_test

import (
	"bytes"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/stencil"
	"repro/internal/vm"
)

func rewriteApply(t *testing.T) *brew.Result {
	t.Helper()
	w, err := stencil.New(vm.MustNew(), 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RewriteApply()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReportClassTotals checks the accounting invariant on the E1c rewrite:
// every traced instruction lands in exactly one class, at the report level,
// per block and per PC.
func TestReportClassTotals(t *testing.T) {
	rep := rewriteApply(t).Report
	if rep == nil {
		t.Fatal("Result.Report is nil")
	}
	if rep.TracedInstrs == 0 || rep.Elided == 0 {
		t.Fatalf("degenerate report: traced=%d elided=%d", rep.TracedInstrs, rep.Elided)
	}
	if got := rep.ClassTotal(); got != rep.TracedInstrs {
		t.Errorf("kept+elided+folded+inlined = %d, want traced = %d", got, rep.TracedInstrs)
	}
	var traced, classed, emitted int
	for _, b := range rep.Blocks {
		traced += b.Traced
		classed += b.Kept + b.Elided + b.Folded + b.Inlined
		emitted += b.Emitted
		if b.Traced != b.Kept+b.Elided+b.Folded+b.Inlined {
			t.Errorf("block B%d: traced=%d but classes sum to %d", b.ID, b.Traced,
				b.Kept+b.Elided+b.Folded+b.Inlined)
		}
	}
	if traced != rep.TracedInstrs {
		t.Errorf("block traced sum = %d, want %d", traced, rep.TracedInstrs)
	}
	if emitted != rep.EmittedFinal {
		t.Errorf("block emitted sum = %d, want EmittedFinal = %d", emitted, rep.EmittedFinal)
	}
	var count int
	for _, d := range rep.Decisions {
		if d.Count != d.Kept+d.Elided+d.Folded+d.Inlined {
			t.Errorf("decision 0x%x: count=%d but classes sum to %d", d.PC, d.Count,
				d.Kept+d.Elided+d.Folded+d.Inlined)
		}
		count += d.Count
	}
	if count != rep.TracedInstrs {
		t.Errorf("decision count sum = %d, want %d", count, rep.TracedInstrs)
	}
}

// TestReportDeterminism renders the same rewrite from identical fresh
// machines and requires byte-identical text and JSON output (guards the
// map-iteration-order bug class).
func TestReportDeterminism(t *testing.T) {
	render := func() ([]byte, []byte) {
		rep := rewriteApply(t).Report
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return []byte(rep.Text()), j
	}
	txt0, json0 := render()
	for i := 0; i < 3; i++ {
		txt, js := render()
		if !bytes.Equal(txt, txt0) {
			t.Fatalf("run %d: text rendering differs", i+1)
		}
		if !bytes.Equal(js, json0) {
			t.Fatalf("run %d: JSON rendering differs", i+1)
		}
	}
}

// TestGuardedCallTelemetry checks GuardedResult.Matches/Call and the guard
// hit/miss counters.
func TestGuardedCallTelemetry(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `long f(long x, long k) { return x * k + 1; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := l.FuncAddr("f")
	if err != nil {
		t.Fatal(err)
	}
	out, err := brew.Do(m, &brew.Request{Config: brew.NewConfig(), Fn: fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	g := out.Guarded
	if !g.Matches([]uint64{5, 3}) || g.Matches([]uint64{5, 4}) || g.Matches([]uint64{5}) {
		t.Error("Matches misjudges guard satisfaction")
	}
	if v, err := g.Call(m, 5, 3); err != nil || v != 16 {
		t.Fatalf("hot path: got %d, %v", v, err)
	}
	if v, err := g.Call(m, 5, 4); err != nil || v != 21 {
		t.Fatalf("cold path: got %d, %v", v, err)
	}
	if g.Hits() != 1 || g.Misses() != 1 {
		t.Errorf("GuardedResult hits=%d misses=%d, want 1/1", g.Hits(), g.Misses())
	}
}
