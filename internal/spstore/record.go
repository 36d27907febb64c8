// Package spstore is the crash-safe persistent rewrite store: a
// content-addressed on-disk cache of promoted specializations, so a
// brewsvc restart does not re-trace the world (ROADMAP item 2; modeled on
// Bhojpur GoRPA's build cache with source-dependent versions).
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
//     or truncated record fails its framing or its whole-record checksum
//     on read and is quarantined, never decoded.
//
// A record is binary: fixed-width little-endian fields and count-prefixed
// sections, decoded with every count checked against the bytes left before
// anything is allocated (see Record.encode). The rewrite report rides along
// as raw JSON that adoption does not decode (Record.DecodeReport).
package spstore

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// FNV-1a/64, hand-rolled like internal/brewsvc's key mixer so the store
// has no hash-package dependency and the constants are auditable. It folds
// the key's handful of words; bulk bytes go through digest.
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

// Multipliers and lane seeds of the digest (xxHash64's primes).
const (
	dPrime1 uint64 = 0x9e3779b185ebca87
	dPrime2 uint64 = 0xc2b2ae3d27d4eb4f
	dPrime3 uint64 = 0x165667b19e3779f9
	dPrime5 uint64 = 0x27d4eb2f165667c5
)

// dRound folds one 8-byte word into a lane. It is a bijection of the lane
// for a fixed word and of the word for a fixed lane, so two inputs that
// differ in one word leave the lane different — and every later round,
// the lane merge and the avalanche are bijections too.
func dRound(h, w uint64) uint64 { return bits.RotateLeft64(h+w*dPrime2, 31) * dPrime1 }

// digest is the store's one bulk hash: of the original-code window, of
// every frozen range, and of a record body for its checksum. It reads eight
// bytes per step, in four lanes so that the multiplies of one step overlap,
// mixes the length in, and ends with an avalanche. Any single changed word
// — any flipped bit — changes the result (see dRound); unlike a word-wise
// FNV-1a (xor, multiply), where a flip of bit 63 stays exactly bit 63 and a
// second one cancels it, a difference is rotated into the low bits and
// multiplied out at once.
func digest(b []byte) uint64 {
	n := uint64(len(b))
	h := dPrime5
	if len(b) >= 32 {
		v1, v2, v3, v4 := dPrime1, dPrime2, dPrime3, dPrime5
		for ; len(b) >= 32; b = b[32:] {
			v1 = dRound(v1, binary.LittleEndian.Uint64(b))
			v2 = dRound(v2, binary.LittleEndian.Uint64(b[8:]))
			v3 = dRound(v3, binary.LittleEndian.Uint64(b[16:]))
			v4 = dRound(v4, binary.LittleEndian.Uint64(b[24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h = dRound(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var w uint64
		for i := len(b) - 1; i >= 0; i-- {
			w = w<<8 | uint64(b[i])
		}
		h = dRound(h, w)
	}
	h ^= h >> 33
	h *= dPrime2
	h ^= h >> 29
	h *= dPrime3
	h ^= h >> 32
	return h
}

// Key is the 128-bit content address of a record: two independent FNV-1a
// streams over the same canonical input (different offset bases), wide
// enough that distinct assumption sets never collide in practice.
type Key struct{ Hi, Lo uint64 }

// String renders the key as 32 hex digits — also the record's file name
// stem inside the store directory.
func (k Key) String() string {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], k.Hi)
	binary.BigEndian.PutUint64(raw[8:], k.Lo)
	var out [32]byte
	hex.Encode(out[:], raw[:])
	return string(out[:])
}

// IsZero reports whether the key is the zero value (no valid key).
func (k Key) IsZero() bool { return k == Key{} }

// FrozenDigest is the recorded digest of one frozen memory range the
// rewrite assumed constant (Config.FrozenRanges at capture time).
// Revalidation re-reads [Start,End) from the live machine and compares.
type FrozenDigest struct {
	Start, End, Hash uint64
}

// Record is one persisted specialization. Everything needed to revalidate
// the assumptions and re-install the body travels with the code bytes;
// the whole encoded record is covered by a trailing checksum. A decoded
// record's Code and Report share the buffer it was decoded from.
type Record struct {
	// Key is the content address (hex), duplicated inside the record so a
	// renamed or misfiled record self-identifies.
	Key string
	// Fn is the original function's entry address.
	Fn uint64
	// OrigLen/OrigHash digest the original code window starting at Fn —
	// the "hash of the original code bytes" half of the content address.
	OrigLen  int
	OrigHash uint64
	// Fingerprint is Config.Fingerprint() at capture time.
	Fingerprint uint64
	// Effort is the rewrite tier ("full"/"quick") the body was built at.
	Effort string
	// Guards is the sorted guard set the body was specialized under.
	Guards []brew.ParamGuard
	// Args/FArgs are the capture-time argument vectors (the known-class
	// params are rewrite assumptions; the rest travel for diagnostics).
	Args  []uint64
	FArgs []float64
	// Frozen digests every memory range the rewrite assumed constant.
	Frozen []FrozenDigest
	// CodeAddr/CodeSize/Code are the rewritten VX64 body and the JIT
	// address it was captured at. Branches and calls are rel32, so the body
	// moves as a block: adoption installs it wherever there is room and
	// re-aims the references that leave [CodeAddr, CodeAddr+CodeSize),
	// which it finds by decoding Code at CodeAddr — CodeAddr is what the
	// bytes are read against, not where they have to go. CodeSize is
	// len(Code); the encoding stores the length once.
	CodeAddr uint64
	CodeSize int
	Code     []byte
	// Blocks/TracedInstrs mirror the brew.Result bookkeeping of the rewrite.
	Blocks       int
	TracedInstrs int
	// Report is the rewrite's brew.RewriteReport as compact JSON. Adoption
	// does not decode it; DecodeReport does, for tools that ask.
	Report json.RawMessage
	// Generation is the store manifest generation the record was written
	// under (diagnostic: which writer epoch produced it).
	Generation uint64
}

// DecodeReport decodes the rewrite report the record carries; nil, nil
// when it carries none.
func (r *Record) DecodeReport() (*brew.RewriteReport, error) {
	if len(r.Report) == 0 {
		return nil, nil
	}
	var rep brew.RewriteReport
	if err := json.Unmarshal(r.Report, &rep); err != nil {
		return nil, fmt.Errorf("spstore: record %s: report: %w", r.Key, err)
	}
	return &rep, nil
}

// recordMagic leads every record file; a file without it is garbage (or a
// torn write that never got past the header) and quarantines on read.
// oldMagic led the JSON-bodied records of earlier builds. Their keys were
// derived with another digest, so no lookup names one; decodeRecord calls
// them errOldFormat, and GC removes them.
const (
	recordMagic = "SPSTORE2"
	oldMagic    = "SPSTORE1"
)

// errOldFormat is the decode error of an oldMagic file.
var errOldFormat = errors.New("old-format record (" + oldMagic + ")")

// Sizes of the fixed-width section elements.
const (
	guardSize  = 16 // param, value
	frozenSize = 24 // start, end, hash
)

// encode renders the record as magic + 8-byte LE body length + body +
// 8-byte LE digest of the body. Truncation at any offset breaks either the
// length or the checksum; a bit-flip breaks the checksum; both are
// detected before the body is ever decoded. The body, every integer
// little-endian, every count a u32:
//
//	key            count, bytes
//	fn             u64
//	orig_len       u64
//	orig_hash      u64
//	fingerprint    u64
//	effort         count, bytes
//	guards         count, count × (param u64, value u64)
//	args           count, count × u64
//	fargs          count, count × f64 bits
//	frozen         count, count × (start u64, end u64, hash u64)
//	code_addr      u64
//	code           count, bytes
//	blocks         u64
//	traced_instrs  u64
//	report         count, bytes (compact JSON)
//	generation     u64
//
// Every byte is determined by the record, so a decode re-encodes to the
// same bytes. The rel32 fields adoption re-aims are not stored: they are
// derived from a decode of the code.
func (r *Record) encode() ([]byte, error) {
	if r.CodeSize != len(r.Code) {
		return nil, fmt.Errorf("spstore: encode record: code size %d != %d code bytes", r.CodeSize, len(r.Code))
	}
	n := 4 + len(r.Key) + 4*8 + 4 + len(r.Effort) + 4 + guardSize*len(r.Guards) +
		4 + 8*len(r.Args) + 4 + 8*len(r.FArgs) + 4 + frozenSize*len(r.Frozen) +
		8 + 4 + len(r.Code) + 2*8 + 4 + len(r.Report) + 8
	out := make([]byte, 0, len(recordMagic)+8+n+8)
	out = append(out, recordMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	u32 := func(v int) { out = binary.LittleEndian.AppendUint32(out, uint32(v)) }
	u64 := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }

	u32(len(r.Key))
	out = append(out, r.Key...)
	u64(r.Fn)
	u64(uint64(r.OrigLen))
	u64(r.OrigHash)
	u64(r.Fingerprint)
	u32(len(r.Effort))
	out = append(out, r.Effort...)
	u32(len(r.Guards))
	for _, g := range r.Guards {
		u64(uint64(g.Param))
		u64(g.Value)
	}
	u32(len(r.Args))
	for _, a := range r.Args {
		u64(a)
	}
	u32(len(r.FArgs))
	for _, f := range r.FArgs {
		u64(math.Float64bits(f))
	}
	u32(len(r.Frozen))
	for _, fr := range r.Frozen {
		u64(fr.Start)
		u64(fr.End)
		u64(fr.Hash)
	}
	u64(r.CodeAddr)
	u32(len(r.Code))
	out = append(out, r.Code...)
	u64(uint64(r.Blocks))
	u64(uint64(r.TracedInstrs))
	u32(len(r.Report))
	out = append(out, r.Report...)
	u64(r.Generation)

	body := out[len(recordMagic)+8:]
	return binary.LittleEndian.AppendUint64(out, digest(body)), nil
}

// decodeRecord verifies the framing and checksum and decodes the body.
// Every failure mode returns a distinct error string (the quarantine
// reason recorded in the flight recorder).
func decodeRecord(b []byte) (*Record, error) {
	if len(b) >= len(oldMagic) && string(b[:len(oldMagic)]) == oldMagic {
		return nil, errOldFormat
	}
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
	if got := digest(body); got != sum {
		return nil, fmt.Errorf("checksum mismatch: computed %016x, recorded %016x", got, sum)
	}
	return decodeBody(body)
}

// bodyReader walks a record body. The first failure sticks: every later
// read returns zero and the caller reports the first error.
type bodyReader struct {
	b   []byte
	err error
}

func (d *bodyReader) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("undecodable body: %s: truncated", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads a section's element count and refuses it unless that many
// elements of size bytes fit in what is left — so a section is never
// allocated for more than the record holds.
func (d *bodyReader) count(what string, size int) int {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.err = fmt.Errorf("undecodable body: %s: truncated count", what)
		return 0
	}
	n := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	if uint64(n)*uint64(size) > uint64(len(d.b)) {
		d.err = fmt.Errorf("undecodable body: %s: %d × %d bytes, %d left", what, n, size, len(d.b))
		return 0
	}
	return int(n)
}

// bytes reads a count-prefixed byte section, nil when empty; the result
// aliases the body.
func (d *bodyReader) bytes(what string) []byte {
	n := d.count(what, 1)
	if n == 0 {
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// decodeBody decodes a checksum-verified body (layout at encode).
func decodeBody(body []byte) (*Record, error) {
	d := &bodyReader{b: body}
	r := &Record{}
	r.Key = string(d.bytes("key"))
	r.Fn = d.u64("fn")
	r.OrigLen = int(d.u64("orig_len"))
	r.OrigHash = d.u64("orig_hash")
	r.Fingerprint = d.u64("fingerprint")
	r.Effort = string(d.bytes("effort"))
	if n := d.count("guards", guardSize); n > 0 {
		r.Guards = make([]brew.ParamGuard, n)
		for i := range r.Guards {
			r.Guards[i] = brew.ParamGuard{Param: int(d.u64("guard")), Value: d.u64("guard")}
		}
	}
	if n := d.count("args", 8); n > 0 {
		r.Args = make([]uint64, n)
		for i := range r.Args {
			r.Args[i] = d.u64("arg")
		}
	}
	if n := d.count("fargs", 8); n > 0 {
		r.FArgs = make([]float64, n)
		for i := range r.FArgs {
			r.FArgs[i] = math.Float64frombits(d.u64("farg"))
		}
	}
	if n := d.count("frozen", frozenSize); n > 0 {
		r.Frozen = make([]FrozenDigest, n)
		for i := range r.Frozen {
			r.Frozen[i] = FrozenDigest{Start: d.u64("frozen"), End: d.u64("frozen"), Hash: d.u64("frozen")}
		}
	}
	r.CodeAddr = d.u64("code_addr")
	r.Code = d.bytes("code")
	r.CodeSize = len(r.Code)
	r.Blocks = int(d.u64("blocks"))
	r.TracedInstrs = int(d.u64("traced_instrs"))
	r.Report = d.bytes("report")
	r.Generation = d.u64("generation")
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("undecodable body: %d trailing bytes", len(d.b))
	}
	return r, nil
}

// origWindowCap bounds the original-code digest window: enough to cover
// any function the rewriter traces, without hashing whole segments.
const origWindowCap = 16 << 10

// origWindow returns the original code bytes starting at fn, up to the cap
// or the end of fn's segment, as a read-only view of guest memory: hash it,
// do not keep it.
func origWindow(m *vm.Machine, fn uint64) ([]byte, error) {
	seg := m.Mem.Find(fn)
	if seg == nil {
		return nil, fmt.Errorf("spstore: fn %#x is unmapped", fn)
	}
	n := seg.End() - fn
	if n > origWindowCap {
		n = origWindowCap
	}
	return m.Mem.Slice(fn, int(n), mem.PermRead)
}

// assumptions is the canonical assumption set shared by key derivation,
// capture and revalidation: the Config fingerprint, the original-code
// digest and the digest of every frozen range, computed against a live
// machine.
type assumptions struct {
	fingerprint uint64
	origLen     int
	origHash    uint64
	frozen      []FrozenDigest
}

func digestAssumptions(m *vm.Machine, cfg *brew.Config, fn uint64, args []uint64) (*assumptions, error) {
	w, err := origWindow(m, fn)
	if err != nil {
		return nil, err
	}
	a := &assumptions{fingerprint: cfg.Fingerprint(), origLen: len(w), origHash: digest(w)}
	ranges := cfg.FrozenRanges(args)
	slices.SortFunc(ranges, func(x, y brew.MemRange) int {
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		return cmp.Compare(x.End, y.End)
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
		b, err := m.Mem.Slice(r.Start, int(r.End-r.Start), mem.PermRead)
		if err != nil {
			return nil, fmt.Errorf("spstore: frozen range [%#x,%#x): %w", r.Start, r.End, err)
		}
		a.frozen = append(a.frozen, FrozenDigest{Start: r.Start, End: r.End, Hash: digest(b)})
	}
	return a, nil
}

// mixKey folds the canonical record identity into one FNV stream. The
// known-argument mixing mirrors internal/brewsvc's cache key (only
// params the fingerprinted Config classes as known contribute), so the
// store's content address and the service's in-memory coalescing key
// agree about what "the same request" means. sorted is the guard set in
// canonical order (normalizeGuards).
func mixKey(h uint64, a *assumptions, cfg *brew.Config, fn uint64, args []uint64, fargs []float64, sorted []brew.ParamGuard) uint64 {
	h = fnvMix(h, fn)
	h = fnvMix(h, uint64(a.origLen))
	h = fnvMix(h, a.origHash)
	h = fnvMix(h, a.fingerprint)
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
	sorted := normalizeGuards(guards)
	lo := mixKey(fnvOffset64, a, cfg, fn, args, fargs, sorted)
	hi := mixKey(fnvMix(fnvOffset64, 0x9e3779b97f4a7c15), a, cfg, fn, args, fargs, sorted)
	return Key{Hi: hi, Lo: lo}
}
