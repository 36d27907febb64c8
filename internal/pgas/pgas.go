// Package pgas implements the simulated PGAS (Partitioned Global Address
// Space) substrate motivating the paper: a DASH-like distributed array
// whose global-to-local index translation and locality check sit on the
// hot path of every element access (Section V: "DASH must translate
// between global and local address space for every call to operator[]...
// using this operator is not recommended in inner-most loops"), and the
// Section VIII plan of redirecting remote accesses to RDMA-prefetched
// local buffers via a second rewritten version of the same code.
//
// The "cluster" is simulated: every node's partition lives in the one
// simulated address space; partitions of other nodes cost extra cycles per
// access (vm.RegionCost) and fetches through the rdma_get helper pay a
// protocol overhead (vm.FuncCost).
package pgas

import (
	"fmt"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/vm"
)

// MaxNodes bounds the simulated node count (the GArr descriptor holds a
// fixed partition table).
const MaxNodes = 8

// Source is the PGAS runtime and kernels, compiled to VX64.
const Source = `
struct GArr {
    long nnodes;
    long bs;          // elements per node
    long me;          // executing node
    long pref;        // prefetch buffer base (pgas_get_pref)
    long pref_lo;     // first prefetched global index
    long pref_hi;     // one past the last prefetched global index
    long parts[8];    // partition base addresses
};

struct GArr garr = {0, 0, 0, 0, 0, 0, {0, 0, 0, 0, 0, 0, 0, 0}};

typedef double (*getter_t)(struct GArr*, long);

// rdma_get models the remote fetch path; the machine charges it a
// protocol overhead on top of the remote-region access latency.
double rdma_get(struct GArr *a, long node, long off) {
    double *p = (double*) a->parts[node];
    return p[off];
}

// pgas_get is the generic global access: index translation, locality
// check, local or remote path. This is the paper's operator[].
double pgas_get(struct GArr *a, long i) {
    long node = i / a->bs;
    long off = i - node * a->bs;
    if (node == a->me) {
        double *p = (double*) a->parts[node];
        return p[off];
    }
    return rdma_get(a, node, off);
}

// pgas_get_pref first consults the prefetch window (filled by an RDMA
// bulk transfer), then falls back to the generic path.
double pgas_get_pref(struct GArr *a, long i) {
    if (i >= a->pref_lo && i < a->pref_hi) {
        double *p = (double*) a->pref;
        return p[i - a->pref_lo];
    }
    return pgas_get(a, i);
}

// gsum reduces a global index range through a getter; the workload whose
// inner-most loop the paper warns about.
double gsum(struct GArr *a, long from, long to, getter_t get) {
    double s = 0.0;
    for (long i = from; i < to; i++) {
        s += get(a, i);
    }
    return s;
}
`

// GArr field offsets (must match the struct layout above).
const (
	offNNodes = 0
	offBS     = 8
	offMe     = 16
	offPref   = 24
	offPrefLo = 32
	offPrefHi = 40
	offParts  = 48
	garrSize  = 48 + 8*MaxNodes
)

// RemoteAccessCost is the extra per-access latency of another node's
// partition (fine-grained remote load, ~RDMA read).
const RemoteAccessCost = 400

// RdmaCallCost is the protocol overhead charged per rdma_get call.
const RdmaCallCost = 200

// System is a linked PGAS runtime with one distributed array.
type System struct {
	M      *vm.Machine
	L      *minc.Linked
	NNodes int
	BS     int // elements per node
	Me     int

	Garr        uint64 // the GArr descriptor
	Parts       []uint64
	GSum        uint64
	PgasGet     uint64
	PgasGetPref uint64
	RdmaGet     uint64

	prefBuf uint64
	prefCap int
	remotes []*vm.RegionCost
	det     *detector
}

// New builds a system with nnodes partitions of bs elements each,
// executing on node me. bs should be a power of two to expose the paper's
// index-computation optimization; other sizes work but keep the division.
func New(m *vm.Machine, nnodes, bs, me int) (*System, error) {
	if nnodes < 1 || nnodes > MaxNodes {
		return nil, fmt.Errorf("pgas: nnodes %d out of range 1..%d", nnodes, MaxNodes)
	}
	if me < 0 || me >= nnodes {
		return nil, fmt.Errorf("pgas: node %d out of range", me)
	}
	l, err := minc.CompileAndLink(m, Source, nil)
	if err != nil {
		return nil, fmt.Errorf("pgas: %w", err)
	}
	s := &System{M: m, L: l, NNodes: nnodes, BS: bs, Me: me}
	for name, dst := range map[string]*uint64{
		"gsum": &s.GSum, "pgas_get": &s.PgasGet,
		"pgas_get_pref": &s.PgasGetPref, "rdma_get": &s.RdmaGet,
	} {
		if *dst, err = l.FuncAddr(name); err != nil {
			return nil, err
		}
	}
	if s.Garr, err = l.GlobalAddr("garr"); err != nil {
		return nil, err
	}
	// Partitions, each a machine region that counts its accesses; remote
	// ones cost extra per access.
	for n := 0; n < nnodes; n++ {
		p, err := m.AllocHeap(uint64(bs * 8))
		if err != nil {
			return nil, err
		}
		s.Parts = append(s.Parts, p)
		rc := &vm.RegionCost{Base: p, End: p + uint64(bs*8)}
		if n != me {
			rc.Extra = RemoteAccessCost
			s.remotes = append(s.remotes, rc)
		}
		m.RegionCosts = append(m.RegionCosts, rc)
	}
	m.FuncCost[s.RdmaGet] = RdmaCallCost

	// Prefetch buffer: one partition's worth, counted like a local one.
	s.prefCap = bs
	if s.prefBuf, err = m.AllocHeap(uint64(bs * 8)); err != nil {
		return nil, err
	}
	m.RegionCosts = append(m.RegionCosts, &vm.RegionCost{Base: s.prefBuf, End: s.prefBuf + uint64(bs*8)})

	// Fill the descriptor.
	w := func(off int, v uint64) error { return m.Mem.Write64(s.Garr+uint64(off), v) }
	if err := w(offNNodes, uint64(nnodes)); err != nil {
		return nil, err
	}
	if err := w(offBS, uint64(bs)); err != nil {
		return nil, err
	}
	if err := w(offMe, uint64(me)); err != nil {
		return nil, err
	}
	for n := 0; n < nnodes; n++ {
		if err := w(offParts+8*n, s.Parts[n]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len returns the global element count.
func (s *System) Len() int { return s.NNodes * s.BS }

// Fill initializes the global array with f(i).
func (s *System) Fill(f func(i int) float64) error {
	for i := 0; i < s.Len(); i++ {
		node, off := i/s.BS, i%s.BS
		if err := s.M.Mem.WriteF64(s.Parts[node]+uint64(8*off), f(i)); err != nil {
			return err
		}
	}
	return nil
}

// Golden computes the reference sum of [from, to) in Go.
func (s *System) Golden(from, to int) (float64, error) {
	var sum float64
	for i := from; i < to; i++ {
		node, off := i/s.BS, i%s.BS
		v, err := s.M.Mem.ReadF64(s.Parts[node] + uint64(8*off))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// Sum runs the generic global reduction over [from, to).
func (s *System) Sum(from, to int) (float64, error) {
	return s.SumWith(s.GSum, s.PgasGet, from, to)
}

// SpecializeSum rewrites gsum for the current distribution: descriptor
// known (block size, executing node, partition table fold; a power-of-two
// block size strength-reduces the index translation), getter inlined. The
// loop itself stays a loop. Callers pass the same argument list.
func (s *System) SpecializeSum() (*brew.Result, error) {
	cfg := brew.NewConfig().
		SetParamPtrToKnown(1, garrSize).
		SetParam(4, brew.ParamKnown)
	// Only the driving loop needs unroll protection; inside the getters
	// every branch condition depends on the (unknown) index, so locality
	// checks survive naturally while the descriptor folds.
	cfg.SetFuncOpts(s.GSum, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	out, err := brew.Do(s.M, &brew.Request{
		Config: cfg, Fn: s.GSum, Args: []uint64{s.Garr, 0, 0, s.PgasGet},
	})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Preload simulates an RDMA bulk transfer of global range [lo, hi) into
// the local prefetch buffer and publishes the window in the descriptor
// (the paper's Section VIII: "triggering preloading from remote nodes per
// RDMA"). A bulk transfer pays the protocol cost once.
func (s *System) Preload(lo, hi int) error {
	if hi-lo > s.prefCap {
		return fmt.Errorf("pgas: prefetch window %d exceeds buffer %d", hi-lo, s.prefCap)
	}
	for i := lo; i < hi; i++ {
		node, off := i/s.BS, i%s.BS
		v, err := s.M.Mem.ReadF64(s.Parts[node] + uint64(8*off))
		if err != nil {
			return err
		}
		if err := s.M.Mem.WriteF64(s.prefBuf+uint64(8*(i-lo)), v); err != nil {
			return err
		}
	}
	// One protocol round plus per-element wire cost, charged up front.
	s.M.Stats.Cycles += RdmaCallCost + uint64(hi-lo)*8
	w := func(off int, v uint64) error { return s.M.Mem.Write64(s.Garr+uint64(off), v) }
	if err := w(offPref, s.prefBuf); err != nil {
		return err
	}
	if err := w(offPrefLo, uint64(lo)); err != nil {
		return err
	}
	return w(offPrefHi, uint64(hi))
}

// SpecializeSumPrefetched rewrites gsum against the prefetch-aware getter
// with the current prefetch window folded in: accesses inside the window
// become direct local buffer loads. Must be re-run when the window moves
// ("a runtime system could trigger a new specialization whenever the
// domain map is changed", Section VI).
func (s *System) SpecializeSumPrefetched() (*brew.Result, error) {
	cfg := brew.NewConfig().
		SetParamPtrToKnown(1, garrSize).
		SetParam(4, brew.ParamKnown)
	cfg.SetFuncOpts(s.GSum, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
	out, err := brew.Do(s.M, &brew.Request{
		Config: cfg, Fn: s.GSum, Args: []uint64{s.Garr, 0, 0, s.PgasGetPref},
	})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// SumWith runs a (possibly rewritten) reduction entry with the given
// getter argument.
func (s *System) SumWith(fn, getter uint64, from, to int) (float64, error) {
	return s.M.CallFloat(fn, []uint64{s.Garr, uint64(from), uint64(to), getter}, nil)
}

// RemoteAccesses reports the number of fine-grained accesses that hit
// remote partitions so far.
func (s *System) RemoteAccesses() uint64 {
	var n uint64
	for _, rc := range s.remotes {
		n += rc.Count
	}
	return n
}

// DescriptorSize is the byte size of the GArr descriptor, for
// ParamPtrToKnown declarations on kernels taking a *GArr.
const DescriptorSize = garrSize
