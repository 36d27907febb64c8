// Package spstore is the crash-safe persistent rewrite store: a
// content-addressed, two-level (local disk + pluggable remote) cache of
// promoted specializations, so a brewsvc restart does not re-trace the
// world (ROADMAP item 2; modeled on Bhojpur GoRPA's local+remote build
// cache with source-dependent versions).
//
// The robustness stakes are higher than a build cache's: adopting a stale
// or corrupt specialized body is a silent miscompile. Three disciplines
// keep the store "never wrong":
//
//   - Content-addressed keys. A record is keyed by the hash of the
//     original code bytes + Config.Fingerprint() + the canonical
//     assumption set (frozen-region digests, known/guarded argument
//     values, effort tier). Change any input and the key changes — a
//     stale record is simply never found.
//   - Revalidate before adopt. A hit is never served blindly: the record
//     checksum, the original code window, every frozen-region digest and
//     the guard set are re-checked against the live machine, the body is
//     decode-walked, placed at whatever address the JIT allocator offers
//     with every reference that leaves it re-aimed, and decoded again in
//     lock-step with the recorded stream. A failure quarantines the record
//     and falls back to a fresh trace; a machine with no place for the body
//     refuses it and leaves the record alone.
//   - Crash-safe writes. Records are written atomically (unique temp
//     file, fsync, rename) under a manifest generation counter; a torn
//     or truncated record fails its whole-record checksum on read and is
//     quarantined, never decoded.
package spstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/vm"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// FNV-1a/64, hand-rolled like internal/brewsvc's key mixer so the store
// has no hash-package dependency and the constants are auditable.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Key is the 128-bit content address of a record: two independent FNV-1a
// streams over the same canonical input (different offset bases), wide
// enough that distinct assumption sets never collide in practice.
type Key struct{ Hi, Lo uint64 }

// String renders the key as 32 hex digits — also the record's file name
// stem inside the store directory.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// IsZero reports whether the key is the zero value (no valid key).
func (k Key) IsZero() bool { return k == Key{} }

// FrozenDigest is the recorded digest of one frozen memory range the
// rewrite assumed constant (Config.FrozenRanges at capture time).
// Revalidation re-reads [Start,End) from the live machine and compares.
type FrozenDigest struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Hash  uint64 `json:"hash"`
}

// Record is one persisted specialization. Everything needed to revalidate
// the assumptions and re-install the body travels with the code bytes;
// the whole encoded record is covered by a trailing checksum.
type Record struct {
	// Key is the content address (hex), duplicated inside the record so a
	// renamed or misfiled record self-identifies.
	Key string `json:"key"`
	// Fn is the original function's entry address.
	Fn uint64 `json:"fn"`
	// OrigLen/OrigHash digest the original code window starting at Fn —
	// the "hash of the original code bytes" half of the content address.
	OrigLen  int    `json:"orig_len"`
	OrigHash uint64 `json:"orig_hash"`
	// Fingerprint is Config.Fingerprint() at capture time.
	Fingerprint uint64 `json:"fingerprint"`
	// Effort is the rewrite tier ("full"/"quick") the body was built at.
	Effort string `json:"effort"`
	// Guards is the sorted guard set the body was specialized under.
	Guards []brew.ParamGuard `json:"guards,omitempty"`
	// Args/FArgs are the capture-time argument vectors (the known-class
	// params are rewrite assumptions; the rest travel for diagnostics).
	Args  []uint64  `json:"args,omitempty"`
	FArgs []float64 `json:"fargs,omitempty"`
	// Frozen digests every memory range the rewrite assumed constant.
	Frozen []FrozenDigest `json:"frozen,omitempty"`
	// CodeAddr/CodeSize/Code are the rewritten VX64 body and the JIT
	// address it was captured at. Branches and calls are rel32, so the body
	// moves as a block: adoption installs it wherever there is room and
	// re-aims the references that leave [CodeAddr, CodeAddr+CodeSize),
	// which it finds by decoding Code at CodeAddr — CodeAddr is what the
	// bytes are read against, not where they have to go.
	CodeAddr uint64 `json:"code_addr"`
	CodeSize int    `json:"code_size"`
	Code     []byte `json:"code"`
	// Blocks/TracedInstrs/Report mirror the brew.Result bookkeeping so a
	// warm adoption synthesizes an outcome indistinguishable from a fresh
	// rewrite (inspection, promotion accounting, brew-trace).
	Blocks       int             `json:"blocks"`
	TracedInstrs int             `json:"traced_instrs"`
	Report       json.RawMessage `json:"report,omitempty"`
	// Generation is the store manifest generation the record was written
	// under (diagnostic: which writer epoch produced it).
	Generation uint64 `json:"generation"`
}

// recordMagic leads every record file; a file without it is garbage (or a
// torn write that never got past the header) and quarantines on read.
const recordMagic = "SPSTORE1"

// encode renders the record as magic + 8-byte LE body length + JSON body
// + 8-byte LE FNV-1a checksum of the body. Truncation at any offset
// breaks either the length or the checksum; a bit-flip breaks the
// checksum; both are detected before the JSON is ever decoded.
func (r *Record) encode() ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("spstore: encode record: %w", err)
	}
	out := make([]byte, 0, len(recordMagic)+16+len(body))
	out = append(out, recordMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint64(out, fnvBytes(fnvOffset64, body))
	return out, nil
}

// decodeRecord verifies the framing and checksum and unmarshals the body.
// Every failure mode returns a distinct error string (the quarantine
// reason recorded in the flight recorder).
func decodeRecord(b []byte) (*Record, error) {
	if len(b) < len(recordMagic)+16 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(b))
	}
	if string(b[:len(recordMagic)]) != recordMagic {
		return nil, fmt.Errorf("bad magic %q", b[:len(recordMagic)])
	}
	n := binary.LittleEndian.Uint64(b[len(recordMagic):])
	rest := b[len(recordMagic)+8:]
	if uint64(len(rest)) != n+8 {
		return nil, fmt.Errorf("length mismatch: header says %d body bytes, file has %d", n, len(rest))
	}
	body, sum := rest[:n], binary.LittleEndian.Uint64(rest[n:])
	if got := fnvBytes(fnvOffset64, body); got != sum {
		return nil, fmt.Errorf("checksum mismatch: computed %016x, recorded %016x", got, sum)
	}
	var r Record
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable body: %v", err)
	}
	if r.CodeSize != len(r.Code) {
		return nil, fmt.Errorf("code size %d != %d code bytes", r.CodeSize, len(r.Code))
	}
	return &r, nil
}

// origWindowCap bounds the original-code digest window: enough to cover
// any function the rewriter traces, without hashing whole segments.
const origWindowCap = 16 << 10

// origWindow reads the original code bytes starting at fn, up to the cap
// or the end of fn's segment.
func origWindow(m *vm.Machine, fn uint64) ([]byte, error) {
	seg := m.Mem.Find(fn)
	if seg == nil {
		return nil, fmt.Errorf("spstore: fn %#x is unmapped", fn)
	}
	n := seg.End() - fn
	if n > origWindowCap {
		n = origWindowCap
	}
	return m.Mem.ReadBytes(fn, int(n))
}

// assumptions is the canonical assumption set shared by key derivation,
// capture and revalidation: the original-code digest plus the digest of
// every frozen range, computed against a live machine.
type assumptions struct {
	origLen  int
	origHash uint64
	frozen   []FrozenDigest
}

func digestAssumptions(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64) (*assumptions, error) {
	w, err := origWindow(m, fn)
	if err != nil {
		return nil, err
	}
	a := &assumptions{origLen: len(w), origHash: fnvBytes(fnvOffset64, w)}
	ranges := cfg.FrozenRanges(args)
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Start != ranges[j].Start {
			return ranges[i].Start < ranges[j].Start
		}
		return ranges[i].End < ranges[j].End
	})
	var prev brew.MemRange
	for i, r := range ranges {
		if i > 0 && r == prev {
			continue
		}
		prev = r
		if r.End <= r.Start {
			continue
		}
		b, err := m.Mem.ReadBytes(r.Start, int(r.End-r.Start))
		if err != nil {
			return nil, fmt.Errorf("spstore: frozen range [%#x,%#x): %w", r.Start, r.End, err)
		}
		a.frozen = append(a.frozen, FrozenDigest{Start: r.Start, End: r.End, Hash: fnvBytes(fnvOffset64, b)})
	}
	return a, nil
}

// mixKey folds the canonical record identity into one FNV stream. The
// known-argument mixing mirrors internal/brewsvc's cache key (only
// params the fingerprinted Config classes as known contribute), so the
// store's content address and the service's in-memory coalescing key
// agree about what "the same request" means.
func mixKey(h uint64, a *assumptions, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard) uint64 {
	h = fnvMix(h, fn)
	h = fnvMix(h, uint64(a.origLen))
	h = fnvMix(h, a.origHash)
	h = fnvMix(h, cfg.Fingerprint())
	for _, fr := range a.frozen {
		h = fnvMix(h, fr.Start)
		h = fnvMix(h, fr.End)
		h = fnvMix(h, fr.Hash)
	}
	for i := 1; i <= len(isa.IntArgRegs); i++ {
		class, _ := cfg.IntParamClass(i)
		if class == brew.ParamUnknown {
			continue
		}
		var v uint64
		if i-1 < len(args) {
			v = args[i-1]
		}
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, v)
	}
	for i := 1; i <= len(isa.FloatArgRegs); i++ {
		if cfg.FloatParamClass(i) == brew.ParamUnknown {
			continue
		}
		var v float64
		if i-1 < len(fargs) {
			v = fargs[i-1]
		}
		h = fnvMix(h, uint64(i)|1<<32)
		h = fnvMix(h, floatBits(v))
	}
	sorted := append([]brew.ParamGuard(nil), guards...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Param != sorted[j].Param {
			return sorted[i].Param < sorted[j].Param
		}
		return sorted[i].Value < sorted[j].Value
	})
	h = fnvMix(h, uint64(len(sorted))|1<<33)
	for _, g := range sorted {
		h = fnvMix(h, uint64(g.Param))
		h = fnvMix(h, g.Value)
	}
	return h
}

// KeyFor derives the content address for (fn, cfg, args, fargs, guards)
// against the live machine — the same derivation capture uses, so a warm
// lookup finds exactly the records whose assumptions match the current
// world.
func KeyFor(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard) (Key, error) {
	if cfg == nil {
		return Key{}, fmt.Errorf("spstore: nil config")
	}
	a, err := digestAssumptions(m, cfg, fn, args)
	if err != nil {
		return Key{}, err
	}
	return keyFrom(a, cfg, fn, args, fargs, guards), nil
}

func keyFrom(a *assumptions, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, guards []brew.ParamGuard) Key {
	// Two streams with distinct offset bases; the second additionally
	// perturbs the basis so the streams do not collapse onto each other.
	lo := mixKey(fnvOffset64, a, cfg, fn, args, fargs, guards)
	hi := mixKey(fnvMix(fnvOffset64, 0x9e3779b97f4a7c15), a, cfg, fn, args, fargs, guards)
	return Key{Hi: hi, Lo: lo}
}
