package brew_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/brew"
)

// TestFreezeNetUnderCollisions repeats the freeze net's pass — the same
// machines, the same requests in the same order, so every image lands where
// the pinned one did — with every known-world hash forced to one value. The
// hash only nominates a translation and the structural comparison decides,
// so each line must be the pinned line, digest and all.
func TestFreezeNetUnderCollisions(t *testing.T) {
	defer brew.CollideWorldHashes()()
	want, err := os.ReadFile(freezeGolden)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	n := 0
	for _, c := range corpus(t) {
		inst := c.build(t)
		for _, effort := range bothEfforts {
			r := newFrozenRun(t, c, inst, effort)
			if n < len(pinned) && r.line() != pinned[n] {
				t.Errorf("line %d under forced collisions:\n  got  %s\n  want %s", n+1, r.line(), pinned[n])
			}
			n++
			// The pinned pass rewrites every request twice.
			if _, err := r.again(); (err == nil) != (r.err == nil) {
				t.Errorf("%s: second rewrite: %v, first: %v", r.name(), err, r.err)
			}
		}
	}
	if n != len(pinned) {
		t.Errorf("%d runs, golden has %d lines", n, len(pinned))
	}
}
