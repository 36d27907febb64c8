package spstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/brew"
	"repro/internal/stencil"
	"repro/internal/vm"
)

const gridXS, gridYS = 16, 12

func newStencil(t testing.TB) (*vm.Machine, *stencil.Workload) {
	t.Helper()
	m := vm.MustNew()
	w, err := stencil.New(m, gridXS, gridYS)
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// testRecord fabricates a small but fully populated record (the code
// bytes need not be valid VX64, nor the report a real one — encode/decode
// interprets neither).
func testRecord() *Record {
	k := Key{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef}
	code := make([]byte, 64)
	for i := range code {
		code[i] = byte(i * 7)
	}
	return &Record{
		Key:          k.String(),
		Fn:           0x4000,
		OrigLen:      128,
		OrigHash:     0x1111222233334444,
		Fingerprint:  0x5555666677778888,
		Effort:       "full",
		Guards:       []brew.ParamGuard{{Param: 2, Value: 16}},
		Args:         []uint64{0, 16, 0x9000},
		FArgs:        []float64{1.5},
		Frozen:       []FrozenDigest{{Start: 0x9000, End: 0x9010, Hash: 0xaaaa}},
		CodeAddr:     0x200000,
		CodeSize:     len(code),
		Code:         code,
		Blocks:       3,
		TracedInstrs: 41,
		Report:       json.RawMessage(`{"note":"test"}`),
		Generation:   7,
	}
}

func TestRecordRoundtrip(t *testing.T) {
	rec := testRecord()
	enc, err := rec.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

// TestRecordEncodingPinned: the bytes of an encoded record. The format is
// binary and every byte is determined by the record (see encode), so a
// change of layout, of a field's width or of the checksum digest shows here
// first; records written under another layout are a clean miss, not a
// misread.
func TestRecordEncodingPinned(t *testing.T) {
	enc, err := testRecord().encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = "291f0247496e872bb8612d723378ff9c6359c049b693a6c6a305cb2731caa634"
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != 307 || got != want {
		t.Fatalf("record encoding changed: %d bytes, sha256 %s (pinned: 307 bytes, %s)", len(enc), got, want)
	}
}

// capturedApply is a real record: the stencil apply kernel traced, and
// captured with its code and its rewrite report.
func capturedApply(t testing.TB) *Record {
	t.Helper()
	m, w := newStencil(t)
	cfg, args := w.ApplyConfig()
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: w.Apply, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Capture(m, cfg, w.Apply, args, nil, nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Report) == 0 || rec.CodeSize == 0 {
		t.Fatalf("captured record has %d code bytes and %d report bytes", rec.CodeSize, len(rec.Report))
	}
	return rec
}

func encodedApply(t testing.TB) []byte {
	t.Helper()
	enc, err := capturedApply(t).encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRecordTruncateEveryOffset is the crash-safety table test: a real
// record cut at ANY byte offset — simulating a torn write or truncated file
// at every possible tear point — must be rejected before its body is ever
// decoded.
func TestRecordTruncateEveryOffset(t *testing.T) {
	enc := encodedApply(t)
	for cut := 0; cut < len(enc); cut++ {
		if _, derr := decodeRecord(enc[:cut]); derr == nil {
			t.Fatalf("record truncated to %d of %d bytes decoded cleanly", cut, len(enc))
		}
	}
	if _, derr := decodeRecord(enc); derr != nil {
		t.Fatalf("untruncated record failed to decode: %v", derr)
	}
}

// TestRecordBitFlipEveryByte proves single-bit corruption — every bit of
// every byte of a real record's encoding: magic, length, body, checksum —
// is detected.
func TestRecordBitFlipEveryByte(t *testing.T) {
	enc := encodedApply(t)
	mut := append([]byte(nil), enc...)
	for i := range mut {
		for bit := 0; bit < 8; bit++ {
			mut[i] ^= 1 << bit
			if _, derr := decodeRecord(mut); derr == nil {
				t.Fatalf("bit %d of byte %d flipped, record decoded cleanly", bit, i)
			}
			mut[i] ^= 1 << bit
		}
	}
}

// countField is one count in a record body: its offset and the size of
// the elements it counts.
type countField struct {
	name string
	off  int
	size int
}

// countFields walks body by the layout encode documents and returns every
// count in it.
func countFields(t *testing.T, body []byte) []countField {
	t.Helper()
	var fields []countField
	off := 0
	count := func(name string, size int) {
		n := int(binary.LittleEndian.Uint32(body[off:]))
		fields = append(fields, countField{name, off, size})
		off += 4 + n*size
	}
	count("key", 1)
	off += 4 * 8 // fn, orig_len, orig_hash, fingerprint
	count("effort", 1)
	count("guards", guardSize)
	count("args", 8)
	count("fargs", 8)
	count("frozen", frozenSize)
	off += 8 // code_addr
	count("code", 1)
	off += 2 * 8 // blocks, traced_instrs
	count("report", 1)
	off += 8 // generation
	if off != len(body) {
		t.Fatalf("layout walk ends at %d of %d body bytes", off, len(body))
	}
	return fields
}

// TestRecordCountOverflow: every count and length in a real record set to
// values the bytes after it cannot hold — with the checksum recomputed, so
// the decoder's own bounds checks are what refuses. Each is rejected, with
// no panic and without allocating more than the file holds.
func TestRecordCountOverflow(t *testing.T) {
	enc := encodedApply(t)
	hdr := len(recordMagic) + 8
	body := enc[hdr : len(enc)-8]
	reseal := func(b []byte) {
		binary.LittleEndian.PutUint64(b[len(b)-8:], digest(b[hdr:len(b)-8]))
	}
	refuse := func(what string, b []byte) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded cleanly (%d code bytes)", what, rec.CodeSize)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(b)) {
			t.Fatalf("%s: refusing allocated %d bytes, the file is %d (%v)", what, got, len(b), err)
		}
	}
	cases := 0
	for _, f := range countFields(t, body) {
		left := len(body) - f.off - 4
		for _, v := range []uint64{math.MaxUint32, 1 << 31, uint64(left/f.size + 1), math.MaxUint32 / uint64(f.size)} {
			mut := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint32(mut[hdr+f.off:], uint32(v))
			reseal(mut)
			refuse(fmt.Sprintf("%s count %d", f.name, v), mut)
			cases++
		}
	}
	for _, v := range []uint64{math.MaxUint64, math.MaxUint64 - 7, 1 << 63, uint64(len(body) + 1)} {
		mut := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(mut[len(recordMagic):], v)
		refuse(fmt.Sprintf("body length %d", v), mut)
		cases++
	}
	if cases != 8*4+4 {
		t.Fatalf("%d cases, want one per count and value", cases)
	}
}

// TestRecordOldFormat: a record an earlier build wrote is refused as
// old-format, not as bad magic.
func TestRecordOldFormat(t *testing.T) {
	old := append([]byte(oldMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := decodeRecord(old); !errors.Is(err, errOldFormat) {
		t.Fatalf("old record refused with %v, want %v", err, errOldFormat)
	}
}

// frame wraps body in a record's magic, length and checksum.
func frame(body []byte) []byte {
	out := append([]byte(recordMagic), binary.LittleEndian.AppendUint64(nil, uint64(len(body)))...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint64(out, digest(body))
}

// FuzzDecodeRecord: decoding never panics, and whatever decodes cleanly
// re-encodes to the bytes it came from. Each input is tried as a file and,
// framed with a valid checksum, as a body — otherwise the checksum would
// turn nearly every mutation away before the body decoder saw it.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []*Record{testRecord(), capturedApply(f)} {
		enc, err := rec.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[len(recordMagic)+8 : len(enc)-8])
	}
	f.Add([]byte(oldMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, frame(b)} {
			rec, err := decodeRecord(in)
			if err != nil {
				continue
			}
			out, err := rec.encode()
			if err != nil {
				t.Fatalf("decoded record does not encode: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("decoded %d bytes, re-encoded %d different ones", len(in), len(out))
			}
		}
	})
}

// TestDigestSingleBitFlips: every single-bit flip of a 16 KB window — the
// original-code window's cap — changes the digest of the whole window. The
// bytes are split across GOMAXPROCS goroutines, each flipping bits in its
// own copy of the window.
func TestDigestSingleBitFlips(t *testing.T) {
	w := make([]byte, origWindowCap)
	for i := range w {
		w[i] = byte(i*131 + i>>8)
	}
	base := digest(w)
	per := (len(w) + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for lo := 0; lo < len(w); lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m := slices.Clone(w)
			for i := lo; i < hi; i++ {
				for bit := 0; bit < 8; bit++ {
					m[i] ^= 1 << bit
					if digest(m) == base {
						t.Errorf("bit %d of byte %d flipped, digest unchanged", bit, i)
						return
					}
					m[i] ^= 1 << bit
				}
			}
		}(lo, min(lo+per, len(w)))
	}
	wg.Wait()
}

// TestDigestTopBitPairs: flipping the top bit of two different words
// changes the digest. A naive word-wise FNV-1a (xor the word, multiply)
// keeps such a difference at exactly bit 63 through every step, so the
// second flip cancels the first; the test checks that it does, so that the
// pairs below are the ones that would catch it.
func TestDigestTopBitPairs(t *testing.T) {
	naive := func(b []byte) uint64 {
		h := uint64(fnvOffset64)
		for ; len(b) >= 8; b = b[8:] {
			h ^= binary.LittleEndian.Uint64(b)
			h *= fnvPrime64
		}
		return h
	}
	w := make([]byte, origWindowCap)
	for i := range w {
		w[i] = byte(i * 7)
	}
	words := len(w) / 8
	flip := func(i, j int) []byte {
		m := append([]byte(nil), w...)
		m[8*i+7] ^= 0x80
		m[8*j+7] ^= 0x80
		return m
	}
	if naive(flip(0, 1)) != naive(w) {
		t.Fatal("naive word-wise FNV-1a told a top-bit pair apart: the test proves nothing")
	}
	base := digest(w)
	pairs := 0
	for i := 0; i < words; i += 61 {
		for _, j := range []int{i + 1, i + 2, i + 3, i + 4, i + 5, words - 1} {
			if j <= i || j >= words {
				continue
			}
			if digest(flip(i, j)) == base {
				t.Fatalf("top bits of words %d and %d flipped, digest unchanged", i, j)
			}
			pairs++
		}
	}
	t.Logf("%d top-bit pairs", pairs)
}

// TestKeyDeterminism: the content address is a pure function of the
// request and the live machine state.
func TestKeyDeterminism(t *testing.T) {
	m, w := newStencil(t)
	cfg, args := w.ApplyConfig()
	k1, err := KeyFor(m, cfg, w.Apply, args, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyFor(m, cfg, w.Apply, args, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same request keyed %s then %s", k1, k2)
	}
	if k1.IsZero() {
		t.Fatal("key is zero")
	}

	// A second, identically built world derives the identical key — the
	// property warm start depends on.
	m2, w2 := newStencil(t)
	cfg2, args2 := w2.ApplyConfig()
	k3, err := KeyFor(m2, cfg2, w2.Apply, args2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Fatalf("identically built machine keyed %s, want %s", k3, k1)
	}
}

// TestKeySensitivity: every input the rewrite depends on — the function,
// the config (incl. effort tier), a known argument, the guard set, and
// the contents of a frozen region — perturbs the key. A changed world is
// a clean MISS, never a stale hit.
func TestKeySensitivity(t *testing.T) {
	m, w := newStencil(t)
	cfg, args := w.ApplyConfig()
	base, err := KeyFor(m, cfg, w.Apply, args, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	keyOrFatal := func(cfg *brew.Config, fn uint64, args []uint64, guards []brew.ParamGuard) Key {
		t.Helper()
		k, err := KeyFor(m, cfg, fn, args, nil, guards)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	if k := keyOrFatal(cfg, w.ApplyGrouped, args, nil); k == base {
		t.Fatal("different fn, same key")
	}
	qcfg, qargs := w.ApplyConfig()
	qcfg.Effort = brew.EffortQuick
	if k := keyOrFatal(qcfg, w.Apply, qargs, nil); k == base {
		t.Fatal("different effort tier, same key")
	}
	wide := append([]uint64(nil), args...)
	wide[1]++ // param 2 is ParamKnown: its value is a rewrite assumption
	if k := keyOrFatal(cfg, w.Apply, wide, nil); k == base {
		t.Fatal("different known argument, same key")
	}
	if k := keyOrFatal(cfg, w.Apply, args, []brew.ParamGuard{{Param: 1, Value: 3}}); k == base {
		t.Fatal("different guard set, same key")
	}

	// Mutate one byte inside the frozen stencil descriptor: the frozen
	// digest — and therefore the key — must change.
	b, err := m.Mem.ReadBytes(w.S5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(w.S5, []byte{b[0] ^ 1}); err != nil {
		t.Fatal(err)
	}
	if k := keyOrFatal(cfg, w.Apply, args, nil); k == base {
		t.Fatal("frozen region contents changed, same key")
	}
	if err := m.Mem.WriteBytes(w.S5, b); err != nil {
		t.Fatal(err)
	}
	if k := keyOrFatal(cfg, w.Apply, args, nil); k != base {
		t.Fatal("restored world did not restore the key")
	}
}

// TestKeyGuardOrderCanonical: guard sets are order-independent.
func TestKeyGuardOrderCanonical(t *testing.T) {
	m, w := newStencil(t)
	cfg, args := w.ApplyConfig()
	g1 := []brew.ParamGuard{{Param: 1, Value: 2}, {Param: 4, Value: 9}}
	g2 := []brew.ParamGuard{{Param: 4, Value: 9}, {Param: 1, Value: 2}}
	k1, err := KeyFor(m, cfg, w.Apply, args, nil, g1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyFor(m, cfg, w.Apply, args, nil, g2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("guard order split the key: %s vs %s", k1, k2)
	}
}
