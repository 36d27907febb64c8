package brew_test

import (
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// TestRewriteBatchSameFunction hammers the concurrency contract from the
// worst angle: many simultaneous Do calls on the *same* function. Every
// tracer reads the same code bytes and every completion races into
// InstallJIT and the icache invalidation on the shared machine. Run under
// -race this exercises the install serialization Do relies on;
// functionally it checks that no variant's code was corrupted by a
// concurrent installation.
func TestRewriteBatchSameFunction(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long A[8] = {3, 1, 4, 1, 5, 9, 2, 6};
long walk(long n, long s) {
    long acc = s;
    for (long i = 0; i < n; i++) {
        acc = acc * 3 + A[(acc + i) & 7];
    }
    return acc;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := l.FuncAddr("walk")
	if err != nil {
		t.Fatal(err)
	}

	const variants = 16
	results := make([]*brew.Outcome, variants)
	errs := make([]error, variants)
	var wg sync.WaitGroup
	for i := range results {
		cfg := brew.NewConfig().SetParam(1, brew.ParamKnown)
		if i%2 == 1 {
			cfg.SetParam(2, brew.ParamKnown)
		}
		req := &brew.Request{Config: cfg, Fn: fn, Args: []uint64{uint64(i), uint64(100 + i)}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = brew.Do(m, req)
		}()
	}
	wg.Wait()
	for i, rerr := range errs {
		if rerr != nil {
			t.Fatalf("variant %d: %v", i, rerr)
		}
	}
	for i, res := range results {
		n, s := uint64(i), uint64(100+i)
		want, err := m.Call(fn, n, s)
		if err != nil {
			t.Fatalf("original walk(%d,%d): %v", n, s, err)
		}
		got, err := m.Call(res.Addr, n, s)
		if err != nil || got != want {
			t.Errorf("variant %d: walk(%d,%d) = %d, %v; want %d", i, n, s, got, err, want)
		}
	}
}

// TestRewriteBatchPositionalErrors checks the per-request failure model
// under concurrency: one failed Do must leave the concurrent requests'
// results intact and report its error to its own caller only.
func TestRewriteBatchPositionalErrors(t *testing.T) {
	m := vm.MustNew()
	l, err := minc.CompileAndLink(m, `
long id(long x) { return x; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := l.FuncAddr("id")
	reqs := []*brew.Request{
		{Config: brew.NewConfig(), Fn: fn},
		{Config: brew.NewConfig(), Fn: 0xdead}, // not executable: must fail alone
		{Config: brew.NewConfig().SetParam(1, brew.ParamKnown), Fn: fn, Args: []uint64{7}},
	}
	results := make([]*brew.Outcome, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = brew.Do(m, req)
		}()
	}
	wg.Wait()
	if errs[0] != nil || results[0] == nil {
		t.Errorf("request 0 should succeed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Errorf("request 1 should fail")
	}
	if errs[2] != nil || results[2] == nil {
		t.Errorf("request 2 should succeed: %v", errs[2])
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			continue
		}
		got, err := m.Call(results[i].Addr, 7)
		if err != nil || got != 7 {
			t.Errorf("request %d: id(7) = %d, %v", i, got, err)
		}
	}
}
