package brew

import "testing"

// TestEqualHashDoesNotLink registers a translation under one world and
// looks an address up under a different world that hashes the same: the
// hash nominates the block, same() must turn it down.
func TestEqualHashDoesNotLink(t *testing.T) {
	defer CollideWorldHashes()()

	tr := newTracer(nil, NewConfig())
	w1 := newWorld()
	w1.r[1] = konst(5)
	w1.writeStack(-8, 8, konst(7))
	id, err := tr.newBlock(0x1000, w1, 0x1000)
	if err != nil {
		t.Fatal(err)
	}

	other := newWorld()
	other.r[1] = konst(6)
	other.writeStack(-8, 8, konst(7))
	if w1.hash() != other.hash() {
		t.Fatal("hashes differ: the collision hook is not in effect")
	}
	if got, _ := tr.findBlock(0x1000, other); got != -1 {
		t.Errorf("edge in a different world linked to block %d on the strength of an equal hash", got)
	}
	slot := w1.share()
	slot.writeStack(-8, 8, konst(8))
	if got, _ := tr.findBlock(0x1000, slot); got != -1 {
		t.Errorf("world differing in one stack slot linked to block %d", got)
	}
	if got, _ := tr.findBlock(0x1000, w1.share()); got != id {
		t.Errorf("the same world found block %d, want %d", got, id)
	}
}
