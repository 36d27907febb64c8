package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share Req; Parent is the span that caused this one (0 for an op's root).
// Ladder marks a span whose duration was measured by replaying the request
// on a twin machine, not inside the live op (see ladder).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ladder bool   `json:"ladder,omitempty"`
}

// maxSpans bounds the recorder's memory; later spans are counted, not kept.
const maxSpans = 1 << 17

// recorder keeps spans in memory until the run ends. A nil *recorder is
// "tracing off": every method is a no-op, so workloads call it
// unconditionally.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 when off or full).
func (r *recorder) begin(parent, req int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// rung is one level of a ladder replay: the duration of the call one layer
// deeper, measured on a twin machine, with sibling calls made at that depth.
type rung struct {
	Layer, Name string
	NS          int64
	Siblings    []rung
}

// ladder attaches a replayed request's rungs beneath the live span parent:
// each rung becomes a child of the rung above, clamped to its parent's
// duration so no self time goes negative, siblings laid out after it. A
// layer's self time then falls out of the ordinary span arithmetic as
// "its rung minus the rung below".
func (r *recorder) ladder(parent int, rungs []rung) {
	if r == nil || parent == 0 || len(rungs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	r.attach(p, rungs)
}

// attach lays rungs[0] and its siblings inside p, then recurses.
func (r *recorder) attach(p span, rungs []rung) {
	at := p.Start
	put := func(g rung) (span, bool) {
		if len(r.spans) >= maxSpans {
			r.dropped++
			return span{}, false
		}
		d := g.NS
		if d < 0 {
			d = 0
		}
		if at+d > p.End {
			d = p.End - at
		}
		s := span{ID: len(r.spans) + 1, Parent: p.ID, Req: p.Req, Layer: g.Layer, Name: g.Name,
			Start: at, End: at + d, Ladder: true}
		r.spans = append(r.spans, s)
		at += d
		return s, true
	}
	first, ok := put(rungs[0])
	for _, sib := range rungs[0].Siblings {
		put(sib)
	}
	if ok && len(rungs) > 1 {
		r.attach(first, rungs[1:])
	}
}

// layerTime is one layer's share of the traced ops.
type layerTime struct {
	Layer string  `json:"layer"`
	Busy  int64   `json:"busy_ns"`
	Self  int64   `json:"self_ns"`
	Share float64 `json:"share_of_op_wall"`
	Spans int     `json:"spans"`
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children may overlap; their union is subtracted).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cur {
			lo = cur
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// opLayer is the layer name of an op's root span; its self time is the op
// wall no layer call explains.
const opLayer = "bench"

// laddered narrows a trace with ladder replays to the ops the ladder
// reached: the requests up to the last replayed one. Only there can op
// wall be followed below the first layer. A trace without replays, and
// every span of it, is returned as is.
func laddered(spans []span) []span {
	last := 0
	for _, s := range spans {
		if s.Ladder && s.Req > last {
			last = s.Req
		}
	}
	if last == 0 {
		return spans
	}
	var out []span
	for _, s := range spans {
		if s.Req >= 1 && s.Req <= last {
			out = append(out, s)
		}
	}
	return out
}

// attribution sums busy and self time per layer over the spans and
// reports the total op wall and the unattributed remainder.
func attribution(spans []span) (layers []layerTime, opWall, unattributed int64) {
	spans = laddered(spans)
	self := selfTimes(spans)
	by := make(map[string]*layerTime)
	for i, s := range spans {
		if s.Layer == opLayer {
			if s.Parent == 0 {
				opWall += s.End - s.Start
			}
			unattributed += self[i]
			continue
		}
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Busy += s.End - s.Start
		lt.Self += self[i]
		lt.Spans++
	}
	for _, lt := range by {
		if opWall > 0 {
			lt.Share = float64(lt.Self) / float64(opWall)
		}
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Self > layers[j].Self })
	return layers, opWall, unattributed
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	OpWall       int64       `json:"op_wall_ns"`
	Unattributed int64       `json:"unattributed_ns"`
	Dropped      int         `json:"dropped_spans"`
	Layers       []layerTime `json:"layers"`
	Spans        []span      `json:"spans"`
}

// write stores the trace under dir and returns the unattributed share of
// op wall in percent.
func (r *recorder) write(dir, workload string, seed int64, text io.Writer) (float64, error) {
	layers, opWall, unattr := attribution(r.spans)
	tf := traceFile{Workload: workload, Seed: seed, OpWall: opWall, Unattributed: unattr,
		Dropped: r.dropped, Layers: layers, Spans: r.spans}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return 0, err
	}
	pct := 0.0
	if opWall > 0 {
		pct = 100 * float64(unattr) / float64(opWall)
	}
	fmt.Fprintf(text, "  trace: %d spans (%d dropped) -> %s; attributing %.3f s of op wall\n", len(r.spans), r.dropped, path, float64(opWall)/1e9)
	fmt.Fprintf(text, "  %-10s %12s %12s %8s %8s\n", "layer", "busy_ms", "self_ms", "share", "spans")
	for _, lt := range layers {
		fmt.Fprintf(text, "  %-10s %12.3f %12.3f %7.1f%% %8d\n", lt.Layer, float64(lt.Busy)/1e6, float64(lt.Self)/1e6, 100*lt.Share, lt.Spans)
	}
	fmt.Fprintf(text, "  %-10s %12s %12.3f %7.1f%%\n", "unattributed", "", float64(unattr)/1e6, pct)
	return pct, nil
}
