package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: opLayer, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "brewsvc", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "vm", Start: 50, End: 80}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Layer: "brew", Start: 20, End: 45},
		{ID: 5, Parent: 1, Layer: "vm", Start: 90, End: 130}, // runs past its parent: clipped
	}
	want := []int64{100 - (70 + 10), 50 - 25, 30, 25, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got, want[i])
		}
	}
	layers, opWall, unattributed := attribution(spans)
	if opWall != 100 || unattributed != 20 {
		t.Errorf("op wall %d, unattributed %d; want 100 and 20", opWall, unattributed)
	}
	self := map[string]int64{}
	for _, lt := range layers {
		self[lt.Layer] = lt.Self
	}
	if self["brewsvc"] != 25 || self["brew"] != 25 || self["vm"] != 70 {
		t.Errorf("layer self times %v, want brewsvc 25, brew 25, vm 70", self)
	}
}

// A layer's self time is its rung minus the rung below (and minus the
// sibling calls made at that depth).
func TestLadderSubtraction(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, 1, opLayer, "request")
	do := r.begin(root, 1, "brewsvc", "Do")
	r.spans[do-1].Start, r.spans[do-1].End = 0, 100
	r.spans[root-1].Start, r.spans[root-1].End = 0, 110
	r.ladder(do, []rung{
		{Layer: "specmgr", Name: "Specialize", NS: 60, Siblings: []rung{{Layer: "spstore", Name: "CapturePut", NS: 10}, {Layer: "spstore", Name: "Adopt", NS: 5}}},
		{Layer: "brew", Name: "Do", NS: 40},
		{Layer: "isa", Name: "Decode", NS: 25, Siblings: []rung{{Layer: "vm", Name: "InstallJIT", NS: 5}}},
	})
	layers, opWall, unattributed := attribution(r.spans)
	if opWall != 110 || unattributed != 10 {
		t.Errorf("op wall %d, unattributed %d; want 110 and 10", opWall, unattributed)
	}
	want := map[string]int64{"brewsvc": 100 - 60 - 10 - 5, "specmgr": 60 - 40, "brew": 40 - 25 - 5, "isa": 25, "spstore": 15, "vm": 5}
	for _, lt := range layers {
		if lt.Self != want[lt.Layer] {
			t.Errorf("%s self = %d, want %d", lt.Layer, lt.Self, want[lt.Layer])
		}
		delete(want, lt.Layer)
	}
	if len(want) != 0 {
		t.Errorf("layers missing from the attribution: %v", want)
	}
	for _, s := range r.spans[2:] {
		if !s.Ladder || s.Req != 1 {
			t.Errorf("replayed span %+v should be marked Ladder and share the op's req", s)
		}
	}
}

// A rung measured on a twin can exceed the live span it hangs under; it is
// clamped so no self time goes negative.
func TestLadderClampsToParent(t *testing.T) {
	r := newRecorder()
	do := r.begin(0, 1, "brewsvc", "Do")
	r.spans[do-1].Start, r.spans[do-1].End = 0, 30
	r.ladder(do, []rung{{Layer: "specmgr", NS: 50}, {Layer: "brew", NS: 70}})
	for i, self := range selfTimes(r.spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", i+1, self)
		}
	}
	if d := r.spans[1].End - r.spans[1].Start; d != 30 {
		t.Errorf("clamped rung lasts %d, want the parent's 30", d)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	id := r.begin(0, 1, "vm", "call")
	r.end(id)
	r.ladder(id, []rung{{Layer: "brew", NS: 1}})
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}
