package brew

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func mkBlock(ins ...isa.Instr) *eblock {
	b := &eblock{id: 0, succ: -1, jcc: -1, term: termEnd}
	b.ins = ins
	b.meta = make([]insMeta, len(ins))
	return b
}

// listing renders the block after dropping what a pass marked dead.
func listing(b *eblock) string {
	sweepDead([]*eblock{b})
	var sb strings.Builder
	for _, in := range b.ins {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// deadCode runs the global dead-code pass and compacts the blocks.
func deadCode(blocks []*eblock) {
	(&optimizer{blocks: blocks}).deadCodeGlobal()
	sweepDead(blocks)
}

func TestDeadCodeGlobalRemovesChains(t *testing.T) {
	b := mkBlock(
		isa.MakeRR(isa.MOV, isa.R2, isa.R1),
		isa.MakeRR(isa.MOV, isa.R6, isa.R2),
		isa.MakeRI(isa.ADDI, isa.R6, 8),
		isa.MakeRM(isa.FLOAD, 3, isa.BaseDisp(isa.R1, 8)),
		isa.MakeRR(isa.FADD, 1, 3),
		isa.MakeRR(isa.FMOV, 0, 1),
		isa.MakeNone(isa.RET),
	)
	deadCode([]*eblock{b})
	if len(b.ins) != 4 {
		t.Errorf("len = %d, want 4:\n%s", len(b.ins), listing(b))
	}
}

func TestDeadCodeGlobalKeepsAcrossBlocks(t *testing.T) {
	// Value defined in b0, used in b1: global liveness must keep it.
	b0 := mkBlock(
		isa.MakeRI(isa.MOVI, isa.R2, 7),
		isa.MakeRI(isa.MOVI, isa.R3, 9), // dead: never used anywhere
	)
	b0.term = termFall
	b0.succ = 1
	b1 := mkBlock(
		isa.MakeRR(isa.MOV, isa.R0, isa.R2),
		isa.MakeNone(isa.RET),
	)
	b1.id = 1
	deadCode([]*eblock{b0, b1})
	if len(b0.ins) != 1 || b0.ins[0].Src.Imm != 7 {
		t.Errorf("b0:\n%s", listing(b0))
	}
}

func TestDeadCodeGlobalFlagsLiveIntoJcc(t *testing.T) {
	// The CMPI feeds the block terminator: must stay.
	b0 := mkBlock(isa.MakeRI(isa.CMPI, isa.R1, 5))
	b0.term = termJcc
	b0.cc = isa.CondLT
	b0.succ, b0.jcc = 1, 1
	b1 := mkBlock(isa.MakeNone(isa.RET))
	b1.id = 1
	deadCode([]*eblock{b0, b1})
	if len(b0.ins) != 1 {
		t.Errorf("cmp removed:\n%s", listing(b0))
	}
}

func TestCopyDanceCoalesces(t *testing.T) {
	b := mkBlock(
		isa.MakeRR(isa.FMOV, 6, 1),
		isa.MakeRR(isa.FADD, 6, 5),
		isa.MakeRR(isa.FMOV, 1, 6),
		isa.MakeRR(isa.FMOV, 0, 1),
		isa.MakeNone(isa.RET),
	)
	copyDance(b)
	got := listing(b)
	if !strings.Contains(got, "fadd f1, f5") || strings.Contains(got, "fmov f6") {
		t.Errorf("not coalesced:\n%s", got)
	}
}

func TestCopyDanceBlockedByLaterUse(t *testing.T) {
	b := mkBlock(
		isa.MakeRR(isa.FMOV, 6, 1),
		isa.MakeRR(isa.FADD, 6, 5),
		isa.MakeRR(isa.FMOV, 1, 6),
		isa.MakeRR(isa.FMOV, 0, 6), // f6 read again: transformation invalid
		isa.MakeNone(isa.RET),
	)
	copyDance(b)
	if !strings.Contains(listing(b), "fmov f6, f1") {
		t.Errorf("unsafe coalesce:\n%s", listing(b))
	}
}

func TestAddrFoldChains(t *testing.T) {
	b := mkBlock(
		isa.MakeRR(isa.MOV, isa.R6, isa.R2),
		isa.MakeRI(isa.ADDI, isa.R6, 16),
		isa.MakeRM(isa.FLOAD, 3, isa.BaseDisp(isa.R6, 8)),
		isa.MakeNone(isa.RET),
	)
	addrFold(b)
	if !strings.Contains(listing(b), "fload f3, [r2+24]") {
		t.Errorf("not folded:\n%s", listing(b))
	}
}

func TestAddrFoldRespectsRedefinition(t *testing.T) {
	b := mkBlock(
		isa.MakeRR(isa.MOV, isa.R6, isa.R2),
		isa.MakeRI(isa.ADDI, isa.R2, 100), // base changes: fold must not use r2
		isa.MakeRM(isa.FLOAD, 3, isa.BaseDisp(isa.R6, 8)),
		isa.MakeNone(isa.RET),
	)
	addrFold(b)
	if !strings.Contains(listing(b), "[r6+8]") {
		t.Errorf("unsound fold:\n%s", listing(b))
	}
}

func TestAddrFoldAbsolute(t *testing.T) {
	b := mkBlock(
		isa.MakeRI(isa.MOVI, isa.R6, 0x5000),
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.R6, 8)),
		isa.MakeNone(isa.RET),
	)
	addrFold(b)
	if !strings.Contains(listing(b), "[0x5008]") {
		t.Errorf("constant address not folded:\n%s", listing(b))
	}
}

func TestForwardFrameStores(t *testing.T) {
	b := mkBlock(
		isa.MakeMR(isa.STORE, isa.BaseDisp(isa.SP, 24), isa.R3),
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.SP, 24)), // same reg: drop
		isa.MakeRM(isa.LOAD, isa.R4, isa.BaseDisp(isa.SP, 24)), // other reg: mov
		isa.MakeNone(isa.RET),
	)
	new(optimizer).forwardFrameStores(b)
	got := listing(b)
	if strings.Contains(got, "load r3") {
		t.Errorf("same-register reload kept:\n%s", got)
	}
	if !strings.Contains(got, "mov r4, r3") {
		t.Errorf("forwarding move missing:\n%s", got)
	}
}

func TestForwardFrameStoresInvalidatedBySPChange(t *testing.T) {
	b := mkBlock(
		isa.MakeMR(isa.STORE, isa.BaseDisp(isa.SP, 24), isa.R3),
		isa.MakeR(isa.PUSH, isa.R5), // SP moves: displacement keys stale
		isa.MakeRM(isa.LOAD, isa.R4, isa.BaseDisp(isa.SP, 24)),
		isa.MakeNone(isa.RET),
	)
	new(optimizer).forwardFrameStores(b)
	if !strings.Contains(listing(b), "load r4, [r15+24]") {
		t.Errorf("stale forwarding:\n%s", listing(b))
	}
}

func TestRedundantLoadsDropsDuplicate(t *testing.T) {
	b := mkBlock(
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.R1, 8)),
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.R1, 8)),
		isa.MakeNone(isa.RET),
	)
	redundantLoads(b)
	sweepDead([]*eblock{b})
	if len(b.ins) != 2 {
		t.Errorf("duplicate load kept:\n%s", listing(b))
	}
}

func TestRedundantLoadsRespectsStores(t *testing.T) {
	b := mkBlock(
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.R1, 8)),
		isa.MakeMR(isa.STORE, isa.BaseDisp(isa.R2, 0), isa.R4), // may alias
		isa.MakeRM(isa.LOAD, isa.R3, isa.BaseDisp(isa.R1, 8)),
		isa.MakeNone(isa.RET),
	)
	redundantLoads(b)
	sweepDead([]*eblock{b})
	if len(b.ins) != 4 {
		t.Errorf("load across store dropped:\n%s", listing(b))
	}
}

func TestShrinkFrameRemovesAdjustPair(t *testing.T) {
	b := mkBlock(
		isa.MakeRI(isa.SUBI, isa.SP, 32),
		isa.MakeRI(isa.MOVI, isa.R0, 42),
		isa.MakeRI(isa.ADDI, isa.SP, 32),
		isa.MakeNone(isa.RET),
	)
	shrinkFrame([]*eblock{b})
	got := listing(b)
	if strings.Contains(got, "subi r15") || strings.Contains(got, "addi r15") {
		t.Errorf("frame adjust kept:\n%s", got)
	}
}

func TestShrinkFrameKeptWhenSlotsUsed(t *testing.T) {
	b := mkBlock(
		isa.MakeRI(isa.SUBI, isa.SP, 32),
		isa.MakeMR(isa.STORE, isa.BaseDisp(isa.SP, 8), isa.R1),
		isa.MakeRM(isa.LOAD, isa.R0, isa.BaseDisp(isa.SP, 8)),
		isa.MakeRI(isa.ADDI, isa.SP, 32),
		isa.MakeNone(isa.RET),
	)
	shrinkFrame([]*eblock{b})
	if !strings.Contains(listing(b), "subi r15, 32") {
		t.Errorf("frame removed while used:\n%s", listing(b))
	}
}

func TestCompatMigration(t *testing.T) {
	w1 := newWorld()
	w2 := newWorld()
	// Same known value, unmaterialized in w1, target expects materialized.
	w1.r[2] = ival{kind: vConst, val: 42}
	w2.r[2] = ival{kind: vConst, val: 42, mat: true}
	comp, ok := compat(w1, w2)
	if !ok || comp != intBit(2) {
		t.Errorf("compat: %#x %v", comp, ok)
	}
	// Different known value: no migration.
	w2.r[2] = ival{kind: vConst, val: 43}
	if _, ok := compat(w1, w2); ok {
		t.Error("value mismatch accepted")
	}
	// Known -> unknown: allowed with materialization.
	w2.r[2] = unknown()
	comp, ok = compat(w1, w2)
	if !ok || comp != intBit(2) {
		t.Errorf("known->unknown: %#x %v", comp, ok)
	}
	// Unknown -> known: rejected.
	w1.r[2] = unknown()
	w2.r[2] = konst(1)
	if _, ok := compat(w1, w2); ok {
		t.Error("unknown->known accepted")
	}
}

func TestGeneralizeConverges(t *testing.T) {
	w1 := newWorld()
	w2 := newWorld()
	w1.r[3] = konst(1)
	w2.r[3] = konst(2)
	w1.r[4] = konst(9)
	w2.r[4] = konst(9)
	g := generalize(w1, []*world{w2})
	if g.r[3].isKnown() {
		t.Error("conflicting value survived generalization")
	}
	if !g.r[4].isConst() || g.r[4].val != 9 {
		t.Error("agreeing value lost")
	}
	if g.r[isa.SP].kind != vStackRel {
		t.Error("SP must stay symbolic")
	}
	// Migrating from w1 into its own generalization always works.
	if _, ok := compat(w1, g); !ok {
		t.Error("w1 cannot reach its generalization")
	}
}

func TestWorldKeyDistinguishesStates(t *testing.T) {
	// The hash nominates and same() decides; both must tell these apart.
	differ := func(a, b *world, what string) {
		t.Helper()
		if a.hash() == b.hash() {
			t.Errorf("%s not in hash", what)
		}
		if same(a, b) {
			t.Errorf("%s not in same()", what)
		}
	}
	w1 := newWorld()
	w2 := newWorld()
	if w1.hash() != w2.hash() || !same(w1, w2) {
		t.Error("identical worlds differ")
	}
	w2.r[1] = konst(5)
	differ(w1, w2, "register state")
	w3 := w2.share()
	if w2.hash() != w3.hash() || !same(w2, w3) {
		t.Error("share changed the world")
	}
	w3.writeStack(-8, 8, konst(1))
	differ(w2, w3, "stack slot")
	w4 := w2.share()
	w4.fdirty = true
	differ(w2, w4, "fdirty")
	w5 := w2.share()
	w5.escaped = true
	differ(w2, w5, "escaped")
	w6 := w2.share()
	w6.overlayWrite(0x5003, 0x1122, 2)
	differ(w2, w6, "overlay byte")
	w7 := w2.share()
	w7.poisonMem(0x5003, 2)
	differ(w6, w7, "overlay poison")
}

func TestStackOverlapInvalidation(t *testing.T) {
	w := newWorld()
	w.writeStack(-16, 8, konst(7))
	if v, ok := w.readStack(-16, 8); !ok || v.val != 7 {
		t.Fatal("slot lost")
	}
	// Overlapping byte store invalidates the 8-byte slot.
	w.writeStack(-12, 1, konst(0xFF))
	if _, ok := w.readStack(-16, 8); ok {
		t.Error("overlapped slot still readable")
	}
	if v, ok := w.readStack(-12, 1); !ok || v.val != 0xFF {
		t.Error("byte slot missing")
	}
	// Size mismatch does not match.
	if _, ok := w.readStack(-12, 8); ok {
		t.Error("size mismatch matched")
	}
}
