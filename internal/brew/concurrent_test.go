package brew_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/brew"
)

// TestConcurrentDo runs eight rewrites of the same request at once on one
// machine: requests share nothing but the machine they read, and installs
// serialize on the JIT lock, so each concurrent result must be the serial
// one moved to another address. Run it under -race; -short keeps the paper's
// guests and two generated programs, which is what could go wrong — it does
// not depend on the program.
func TestConcurrentDo(t *testing.T) {
	const workers = 8
	cases := corpus(t)
	if testing.Short() {
		cases = cases[:paperCases+2]
	}
	for _, c := range cases {
		inst := c.build(t)
		for _, effort := range bothEfforts {
			r := newFrozenRun(t, c, inst, effort)
			if r.err != nil {
				continue // refusals are pinned by the freeze net
			}
			outs := make([]*brew.Outcome, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := range outs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], errs[i] = r.again()
				}(i)
			}
			wg.Wait()
			for i, out := range outs {
				if errs[i] != nil {
					t.Fatalf("%s worker %d: %v", r.name(), i, errs[i])
				}
				for _, f := range r.sameRewrite(t, fmt.Sprintf("concurrent rewrite %d", i), out) {
					t.Error(f)
				}
				// Eight copies of the larger images would fill the JIT space.
				if err := inst.M.FreeJIT(out.Addr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
