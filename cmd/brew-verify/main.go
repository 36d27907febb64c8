// brew-verify runs the differential-execution oracle (internal/oracle): for
// each case it builds two identical machines, rewrites the function under
// test on one, executes both on randomized argument vectors consistent with
// the declared known parameters, and compares return registers, the ordered
// non-stack store journal, final memory and faulting behaviour. Any
// divergence is a rewriter bug and is reported with a minimized argument
// vector and disassembly context.
//
// With -faults n, an additional n fault-injected degrade-mode cases run:
// the rewrite happens under seeded fault injection (internal/faultinject)
// with brew.Do in ModeDegrade, so failures fall back to the original
// function — and the oracle then verifies the fallback is a faithful
// drop-in as well. Divergences under injection are specialization-manager
// or rewriter bugs exactly like ordinary ones.
//
// With -persist, every case additionally runs through the persist/reload
// oracle (oracle.RunPersist): the fresh rewrite is captured into a
// persistent store (internal/spstore) and adopted back, through full
// revalidation, by two simulated restarts — one whose JIT allocator offers
// the recorded address, one with a decoy parked first so that the store has
// to move the body. Each adopted body must be byte-for-byte identical to a
// fresh rewrite at the address it landed on, and the moved one behaviorally
// identical to the original. The run prints how many adoptions moved and
// fails unless every persisted body did. -store keeps the store directory
// for later inspection (brew-cache); the default is a throwaway temp dir.
//
//	brew-verify -seeds 200            # 200 random generated programs + stencil kernels
//	brew-verify -seeds 50 -stencil=false -trials 10
//	brew-verify -start 1000 -seeds 64 # a different slice of the program space
//	brew-verify -seeds 0 -stencil=false -faults 60   # fallback-path smoke
//	brew-verify -seeds 200 -persist   # + persist/reload equivalence per case
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/brew"
	"repro/internal/faultinject"
	"repro/internal/oracle"
	"repro/internal/spstore"
)

// armed builds a seeded injector with rates that exercise every point
// within a handful of rewrites (SiteTrace points fire per instruction).
func armed(seed int64) *faultinject.Injector {
	inj := faultinject.New(seed)
	inj.Arm(faultinject.PointOpcode, 0.003*float64(seed%3))
	inj.Arm(faultinject.PointBudget, 0.003*float64((seed/3)%3))
	inj.Arm(faultinject.PointPanic, 0.002*float64((seed/9)%3))
	inj.Arm(faultinject.PointJITAlloc, 0.5*float64(seed%2))
	return inj
}

func main() {
	var (
		seeds   = flag.Int("seeds", 200, "number of random generated-program cases")
		start   = flag.Int64("start", 0, "first generator seed")
		trials  = flag.Int("trials", 0, "argument vectors per case (0 = oracle default)")
		stencil = flag.Bool("stencil", true, "also verify the paper's stencil kernels (E1c, E2b, E3b) and the kept-call guests")
		xs      = flag.Int("xs", 16, "stencil grid width")
		ys      = flag.Int("ys", 12, "stencil grid height")
		faults  = flag.Int("faults", 0, "fault-injected degrade-mode cases (0 disables)")
		persist = flag.Bool("persist", false, "also run every case through the persist/reload oracle")
		store   = flag.String("store", "", "persist-mode store directory (default: throwaway temp dir)")
		quiet   = flag.Bool("q", false, "only print the summary line")
	)
	flag.Parse()

	var rep oracle.Report
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(1)
	}

	var st *spstore.Store
	if *persist {
		dir := *store
		if dir == "" {
			tmp, err := os.MkdirTemp("", "brew-verify-store-*")
			if err != nil {
				fail("persist: %v", err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		var err error
		if st, err = spstore.Open(spstore.Options{Dir: dir}); err != nil {
			fail("persist: %v", err)
		}
		defer st.Close()
	}

	// runPersist mirrors a case through the persist/reload oracle when
	// -persist is set; mustRewrite marks cases whose refusal is a
	// regression rather than a skip. persisted counts the cases that had a
	// body to persist, moved those whose adoption left the recorded address.
	var persisted, moved int
	runPersist := func(c oracle.Case, seed int64, mustRewrite bool) {
		if st == nil {
			return
		}
		res, err := oracle.RunPersist(c, seed, st)
		if err != nil {
			fail("%s: persist harness error: %v", c.Name, err)
		}
		if mustRewrite && res.RewriteErr != nil {
			fail("%s: rewrite refused: %v", c.Name, res.RewriteErr)
		}
		if res.RewriteErr == nil {
			persisted++
		}
		if res.Moved {
			moved++
		}
		rep.Add(res)
		if res.Divergence != nil && !*quiet {
			fmt.Print(res.Divergence.Format())
		}
	}

	// Every generated and stencil case runs at both rewrite tiers: the
	// tier-0 (EffortQuick) pipeline must be exactly as equivalent to the
	// original as the full pipeline is.
	efforts := []struct {
		effort brew.Effort
		suffix string
	}{
		{brew.EffortFull, ""},
		{brew.EffortQuick, "+quick"},
	}

	for seed := *start; seed < *start+int64(*seeds); seed++ {
		for _, e := range efforts {
			c := oracle.Generated(seed)
			c.Name += e.suffix
			c.Trials = *trials
			c.Effort = e.effort
			res, err := oracle.Run(c, seed)
			if err != nil {
				fail("%s: harness error: %v", c.Name, err)
			}
			rep.Add(res)
			if res.Divergence != nil && !*quiet {
				fmt.Print(res.Divergence.Format())
			}
			runPersist(c, seed, false)
		}
	}

	if *stencil {
		// Beside the paper's kernels, the guests that keep a call in their
		// rewrite (the kernels and the generator inline everything): the
		// plain mode checks the kept call, and the persist mode moves a body
		// that has a reference to re-aim.
		kept, err := oracle.KeptCallCases()
		if err != nil {
			fail("kept-call cases: %v", err)
		}
		for _, e := range efforts {
			cases, err := oracle.StencilCases(*xs, *ys)
			if err != nil {
				fail("stencil: %v", err)
			}
			cases = append(cases, kept...)
			for i, c := range cases {
				c.Name += e.suffix
				c.Trials = *trials
				c.Effort = e.effort
				res, err := oracle.Run(c, int64(i)+1)
				if err != nil {
					fail("%s: harness error: %v", c.Name, err)
				}
				if res.RewriteErr != nil {
					// The stencil configurations are the paper's experiments;
					// a refusal there is a regression, not a skip.
					fail("%s: rewrite refused: %v", c.Name, res.RewriteErr)
				}
				rep.Add(res)
				if res.Divergence != nil && !*quiet {
					fmt.Print(res.Divergence.Format())
				}
				runPersist(c, int64(i)+1, true)
			}
		}
	}

	// Multi-variant dispatch cases at both tiers: several guarded
	// specializations behind one inline-cache stub, trials hitting every
	// hot class and falling through on the rest.
	for _, e := range efforts {
		for i, c := range oracle.VariantCases() {
			c.Name += e.suffix
			c.Trials = *trials
			c.Effort = e.effort
			res, err := oracle.Run(c, int64(i)+1)
			if err != nil {
				fail("%s: harness error: %v", c.Name, err)
			}
			if res.RewriteErr != nil {
				// The variant installs are deterministic; a refusal is a
				// regression, not a skip.
				fail("%s: variant install refused: %v", c.Name, res.RewriteErr)
			}
			rep.Add(res)
			if res.Divergence != nil && !*quiet {
				fmt.Print(res.Divergence.Format())
			}
		}
	}

	for seed := int64(0); seed < int64(*faults); seed++ {
		c := oracle.Generated(*start + seed)
		c.Name += "+faults"
		c.Trials = *trials
		c.Degrade = true
		c.Inject = armed(seed).Hook()
		res, err := oracle.Run(c, seed)
		if err != nil {
			fail("%s: harness error: %v", c.Name, err)
		}
		rep.Add(res)
		if res.Divergence != nil && !*quiet {
			fmt.Print(res.Divergence.Format())
		}
	}
	if *faults > 0 && *stencil {
		cases, err := oracle.StencilCases(*xs, *ys)
		if err != nil {
			fail("stencil: %v", err)
		}
		for i, c := range cases {
			c.Name += "+faults"
			c.Trials = *trials
			c.Degrade = true
			c.Inject = armed(int64(i) + 1).Hook()
			res, err := oracle.Run(c, int64(i)+1)
			if err != nil {
				fail("%s: harness error: %v", c.Name, err)
			}
			rep.Add(res)
			if res.Divergence != nil && !*quiet {
				fmt.Print(res.Divergence.Format())
			}
		}
	}

	fmt.Println(rep.Summary())
	if !rep.OK() {
		os.Exit(1)
	}
	if st != nil {
		fmt.Printf("persist: %d of %d adoptions moved off the recorded address\n", moved, persisted)
		if moved == 0 || moved != persisted {
			os.Exit(1)
		}
	}
}
