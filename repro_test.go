package repro_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro"
)

func TestSystemEndToEnd(t *testing.T) {
	sys, err := repro.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sys.CompileC(`
double scale(double *v, long n, double f) {
    double s = 0.0;
    for (long i = 0; i < n; i++) {
        v[i] = v[i] * f;
        s += v[i];
    }
    return s;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := prog.FuncAddr("scale")
	if err != nil {
		t.Fatal(err)
	}
	vec, err := sys.AllocHeap(8 * 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteF64Slice(vec, []float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}

	cfg := repro.NewConfig().SetFloatParam(1, repro.ParamKnown)
	res, err := sys.Do(&repro.Request{Config: cfg, Fn: fn, FArgs: []float64{2.0}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.CallFloat(res.Addr, []uint64{vec, 8}, []float64{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*36 {
		t.Errorf("scaled sum = %g, want 72", got)
	}
	vals, err := sys.ReadF64Slice(vec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if vals[3] != 8 {
		t.Errorf("v[3] = %g, want 8", vals[3])
	}
	dis, err := sys.Disassemble(res.Addr, res.Result.CodeSize)
	if err != nil || !strings.Contains(dis, "ret") {
		t.Errorf("disassembly: %v\n%s", err, dis)
	}
}

func TestSystemAsmPath(t *testing.T) {
	sys, err := repro.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	im, err := sys.LoadAsm(`
f:
    mov r0, r1
    imuli r0, 3
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Call(im.MustEntry("f"), 14)
	if err != nil || got != 42 {
		t.Errorf("f(14) = %d, %v", got, err)
	}
}

func TestErrorReexports(t *testing.T) {
	sys, err := repro.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	im, err := sys.LoadAsm("f:\n jmpr r1\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Do(&repro.Request{Config: repro.NewConfig(), Fn: im.MustEntry("f")})
	if !errors.Is(err, repro.ErrIndirectJump) {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteBatchFacade(t *testing.T) {
	sys, err := repro.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sys.CompileC("long twice(long a, long b) { return a*b*2; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.FuncAddr("twice")
	// Independent requests may run concurrently on one System.
	results := make([]*repro.Outcome, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		req := &repro.Request{
			Config: repro.NewConfig().SetParam(2, repro.ParamKnown),
			Fn:     fn,
			Args:   []uint64{0, uint64(i + 1)},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sys.Do(req)
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("req %d: %v", i, e)
		}
		got, err := sys.Call(results[i].Addr, 10, uint64(i+1))
		if err != nil || got != uint64(10*(i+1)*2) {
			t.Errorf("variant %d = %d, %v", i, got, err)
		}
	}
}
