package spstore

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/brew"
	"repro/internal/stencil"
	"repro/internal/vm"
)

const gridXS, gridYS = 16, 12

func newStencil(t *testing.T) (*vm.Machine, *stencil.Workload) {
	t.Helper()
	m := vm.MustNew()
	w, err := stencil.New(m, gridXS, gridYS)
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// testRecord fabricates a small but fully populated record (the code
// bytes need not be valid VX64 — encode/decode never interprets them).
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

// TestRecordEncodingPinned: the bytes of an encoded record, pinned at the
// commit before bodies could be adopted away from CodeAddr. Relocation
// derives what it needs from the code; the format carries nothing new, and
// a record written by any earlier build reads — and adopts — unchanged.
func TestRecordEncodingPinned(t *testing.T) {
	enc, err := testRecord().encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = "67849af5db9afd324bfea19fcee37ce95044e8fcd55ec70e229504bbdea74d9b"
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != 497 || got != want {
		t.Fatalf("record encoding changed: %d bytes, sha256 %s (pinned: 497 bytes, %s)", len(enc), got, want)
	}
}

// TestRecordTruncateEveryOffset is the crash-safety table test: a record
// cut at ANY byte offset — simulating a torn write or truncated file at
// every possible tear point — must be rejected before its body is ever
// decoded.
func TestRecordTruncateEveryOffset(t *testing.T) {
	enc, err := testRecord().encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, derr := decodeRecord(enc[:cut]); derr == nil {
			t.Fatalf("record truncated to %d of %d bytes decoded cleanly", cut, len(enc))
		}
	}
	if _, derr := decodeRecord(enc); derr != nil {
		t.Fatalf("untruncated record failed to decode: %v", derr)
	}
}

// TestRecordBitFlipEveryByte proves single-bit corruption anywhere in the
// encoding — magic, length, body, checksum — is detected.
func TestRecordBitFlipEveryByte(t *testing.T) {
	enc, err := testRecord().encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			if _, derr := decodeRecord(mut); derr == nil {
				t.Fatalf("bit %d of byte %d flipped, record decoded cleanly", bit, i)
			}
		}
	}
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
