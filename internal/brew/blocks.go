package brew

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// termKind describes how an emitted block ends.
type termKind uint8

const (
	// termFall: control continues in block succ (a JMP is emitted unless
	// the layout places succ immediately after).
	termFall termKind = iota
	// termJcc: conditional jump to jccTarget, else fall through to succ.
	termJcc
	// termEnd: the body's last instruction leaves the function (RET or
	// HALT); no successors.
	termEnd
)

// eblock is one captured (generated) basic block. Captured instructions are
// kept in decoded form until final code generation (paper, Section III.G).
type eblock struct {
	id     int
	addr   uint64 // original address (0 for compensation trampolines)
	fnAddr uint64 // function the original address belongs to
	ins    []isa.Instr
	meta   []insMeta // parallel to ins: frame-access annotations, pass marks
	ndead  int       // instructions marked dead and not yet swept
	term   termKind
	cc     isa.Cond
	succ   int // fallthrough successor block id
	jcc    int // taken successor block id (termJcc)

	// world is the entry snapshot: the known-world state this translation
	// assumes, kept for identity and migration checks and never written
	// once the block is registered (its overlays are shared with whoever
	// traced into it). nil for compensation trampolines.
	world *world
	whash uint64 // world.hash(), nominating this block for an edge
	ctx   int    // inline context (tracer.ctxs) the block starts in
	next  int    // next translation of the same site, -1 at the end
	bytes int    // encoded size of ins

	classes [numClasses]int32 // traced instructions by decision class
}

// frame is one shadow-stack entry for an inlined call (paper, Section
// III.E: "we maintain a shadow stack remembering traced call instructions
// and corresponding return addresses").
type frame struct {
	retAddr uint64 // where tracing continues after the callee returns
	fn      uint64 // inlined callee start address
	delta   int64  // symbolic SP offset at the call site
	opts    FuncOpts
}

// inlineCtx is one interned shadow stack: frame pushed on top of the
// context parent. Context 0 is the empty stack. Equal stacks get equal ids
// (tracer.pushCtx), so a context id is an exact identity — blocks and
// sites compare ids instead of hashing frame lists.
type inlineCtx struct {
	frame
	parent int
	depth  int
}

// ctxKey is what identifies a pushed frame under a parent context; the
// frame's options follow from fn.
type ctxKey struct {
	parent  int
	retAddr uint64
	fn      uint64
	delta   int64
}

// variantSite groups translations of the same original address in the same
// inline context: different known-world states there are different blocks
// (paper, Section III.F), counted against the variant threshold.
type variantSite struct {
	addr uint64
	ctx  int
}

// site is the chain (eblock.next) of a variantSite's translations in
// creation order.
type site struct {
	head, tail, n int
}

// layout is the final placement of the blocks: their order and, by block
// id, each one's byte offset from the image base. Jump encodings are
// fixed-width, so offsets and the total size follow from the block sizes
// alone — the image is encoded once, at the address InstallJIT hands out
// (paper: "Do relocation of all needed jumps, given start addresses from
// the previous step").
type layout struct {
	order []int
	off   []int
	size  int
}

// follower returns the block physically after order[i], -1 at the end.
func (l *layout) follower(i int) int {
	if i+1 < len(l.order) {
		return l.order[i+1]
	}
	return -1
}

// planLayout orders the blocks and assigns offsets.
func planLayout(blocks []*eblock, maxBytes int) (*layout, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: no blocks generated", ErrUnsupported)
	}
	l := &layout{order: blockOrder(blocks), off: make([]int, len(blocks))}
	for i, id := range l.order {
		l.off[id] = l.size
		l.size += blocks[id].bytes + termSize(blocks[id], l.follower(i))
	}
	if l.size > maxBytes {
		return nil, fmt.Errorf("%w: %d bytes > limit %d", ErrCodeBufferFull, l.size, maxBytes)
	}
	return l, nil
}

// encode produces the image based at base (stamping each instruction's
// address on the way: the encoder reads it for relative targets).
func (l *layout) encode(blocks []*eblock, base uint64) ([]byte, error) {
	out := make([]byte, 0, l.size)
	var err error
	for i, id := range l.order {
		b := blocks[id]
		if len(out) != l.off[id] {
			return nil, fmt.Errorf("%w: layout desync at block %d", ErrUnsupported, id)
		}
		for k := range b.ins {
			b.ins[k].Addr = base + uint64(len(out))
			if out, err = isa.AppendEncode(out, b.ins[k]); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
			}
		}
		if b.term == termJcc {
			j := isa.MakeJCC(b.cc, base+uint64(l.off[b.jcc]))
			j.Addr = base + uint64(len(out))
			if out, err = isa.AppendEncode(out, j); err != nil {
				return nil, err
			}
		}
		if b.term != termEnd && b.succ != l.follower(i) {
			j := isa.MakeRel(isa.JMP, base+uint64(l.off[b.succ]))
			j.Addr = base + uint64(len(out))
			if out, err = isa.AppendEncode(out, j); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// termSize returns the encoded size of the block terminator given the
// physically following block.
func termSize(b *eblock, next int) int {
	const jmpLen, jccLen = 5, 6
	switch b.term {
	case termEnd:
		return 0
	case termFall:
		if b.succ == next {
			return 0
		}
		return jmpLen
	case termJcc:
		n := jccLen
		if b.succ != next {
			n += jmpLen
		}
		return n
	}
	return 0
}

// blockOrder determines the final order of generated blocks, preferring
// fallthrough chains (paper: "Determination of the best order of generated
// blocks for the final rewritten code").
func blockOrder(blocks []*eblock) []int {
	seen := make([]bool, len(blocks))
	order := make([]int, 0, len(blocks))
	// chain appends the unvisited fallthrough chain starting at id.
	chain := func(id int) {
		for id >= 0 && !seen[id] {
			seen[id] = true
			order = append(order, id)
			if blocks[id].term == termEnd {
				return
			}
			id = blocks[id].succ // on a branch, prefer the fallthrough path
		}
	}
	chain(0)
	// Remaining blocks: chase taken edges and anything unvisited.
	for id := 0; id < len(blocks); id++ {
		if seen[id] {
			if blocks[id].term == termJcc && !seen[blocks[id].jcc] {
				chain(blocks[id].jcc)
			}
			continue
		}
		chain(id)
	}
	// A second sweep for jcc targets discovered late.
	for id := 0; id < len(blocks); id++ {
		if blocks[id].term == termJcc && !seen[blocks[id].jcc] {
			chain(blocks[id].jcc)
		}
		if blocks[id].term == termFall && !seen[blocks[id].succ] {
			chain(blocks[id].succ)
		}
	}
	return order
}

// blockInfo is what Result keeps of one block for Listing: where its body
// lies in the image and how it ends.
type blockInfo struct {
	addr      uint64 // original address
	off, size int32  // body bytes in the image, terminator excluded
	succ, jcc int32
	term      termKind
	cc        isa.Cond
}

// blockTable summarizes the laid-out blocks, by id.
func blockTable(blocks []*eblock, l *layout) []blockInfo {
	tab := make([]blockInfo, len(blocks))
	for id, b := range blocks {
		tab[id] = blockInfo{addr: b.addr, off: int32(l.off[id]), size: int32(b.bytes),
			succ: int32(b.succ), jcc: int32(b.jcc), term: b.term, cc: b.cc}
	}
	return tab
}

// Listing returns a human-readable dump of the captured blocks (the
// reproduction of the paper's Figure 6). It is rendered on each call by
// decoding the Result's private copy of the emitted image: a rewrite on the
// request path pays for no text, and a held Result retains the image and a
// small block table, not instructions, blocks or worlds.
func (r *Result) Listing() string {
	var sb strings.Builder
	for id, b := range r.blocks {
		fmt.Fprintf(&sb, "block %d (orig 0x%x):\n", id, b.addr)
		for off, end := int(b.off), int(b.off+b.size); off < end; {
			ins, err := isa.Decode(r.image[off:end], r.Addr+uint64(off))
			if err != nil {
				fmt.Fprintf(&sb, "    <%v>\n", err)
				break
			}
			fmt.Fprintf(&sb, "    %s\n", ins)
			off += ins.Len
		}
		switch b.term {
		case termFall:
			fmt.Fprintf(&sb, "    -> b%d\n", b.succ)
		case termJcc:
			fmt.Fprintf(&sb, "    j%s -> b%d else b%d\n", b.cc, b.jcc, b.succ)
		}
	}
	return sb.String()
}
