package oracle

import (
	"testing"

	"repro/internal/brew"
	"repro/internal/spstore"
)

// TestPersistMovesEveryBody: the persist mode over the paper's kernels, the
// guests that keep a call and a few generated programs, at both efforts —
// no divergence on either restart, and every case that had a body to
// persist was adopted away from the address it was captured at.
func TestPersistMovesEveryBody(t *testing.T) {
	st, err := spstore.Open(spstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cases, err := StencilCases(corpusXS, corpusYS)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := KeptCallCases()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, kept...)
	for seed := int64(corpusGenLo); seed < corpusGenLo+6; seed++ {
		cases = append(cases, Generated(seed))
	}
	moved := 0
	for _, effort := range []brew.Effort{brew.EffortFull, brew.EffortQuick} {
		for i, c := range cases {
			c.Effort = effort
			c.Trials = 3
			res, err := RunPersist(c, int64(i), st)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, effort, err)
			}
			if res.Divergence != nil {
				t.Fatalf("%s/%s:\n%s", c.Name, effort, res.Divergence.Format())
			}
			if res.RewriteErr != nil {
				continue
			}
			if !res.Moved {
				t.Fatalf("%s/%s: persisted a body and adopted it where it was captured", c.Name, effort)
			}
			moved++
		}
	}
	if moved < 2*(3+len(kept)) {
		t.Fatalf("only %d adoptions moved: the paper's kernels and the kept-call guests must all persist", moved)
	}
	if s := st.Stats(); s.Relocated != uint64(moved) || s.RevalFails != 0 || s.Quarantined != 0 {
		t.Fatalf("store stats %+v, want %d relocated adoptions and no refusal", s, moved)
	}
}
