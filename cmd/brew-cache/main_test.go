package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/brew"
	"repro/internal/spstore"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// seedStore fills dir the way a service leaves one behind: the apply kernel
// persisted and adopted again, the grouped kernel persisted with digests
// that lie and quarantined by the adoption that caught it, the sweep
// persisted and refused by a machine whose JIT buffer was full — a placement
// miss, which must leave the record live.
func seedStore(t *testing.T, dir string) (applyKey, groupedKey, sweepKey string) {
	t.Helper()
	lie := false
	st, err := spstore.Open(spstore.Options{Dir: dir, Inject: func(p string) bool {
		return lie && p == spstore.InjectStaleAssume
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	boot := func() (*vm.Machine, *stencil.Workload) {
		m := vm.MustNew()
		w, err := stencil.New(m, 16, 12)
		if err != nil {
			t.Fatal(err)
		}
		return m, w
	}
	type kernel struct {
		fn   func(*stencil.Workload) uint64
		cfg  func(*stencil.Workload) (*brew.Config, []uint64)
		lie  bool // persist with a wrong digest
		full bool // adopt into a full JIT buffer
	}
	var keys []string
	for _, k := range []kernel{
		{fn: func(w *stencil.Workload) uint64 { return w.Apply }, cfg: (*stencil.Workload).ApplyConfig},
		{fn: func(w *stencil.Workload) uint64 { return w.ApplyGrouped }, cfg: (*stencil.Workload).GroupedConfig, lie: true},
		{fn: func(w *stencil.Workload) uint64 { return w.Sweep }, cfg: (*stencil.Workload).SweepConfig, full: true},
	} {
		m1, w1 := boot()
		cfg, args := k.cfg(w1)
		out, err := brew.Do(m1, &brew.Request{Config: cfg, Fn: k.fn(w1), Args: args})
		if err != nil {
			t.Fatal(err)
		}
		lie = k.lie
		rec, err := st.CapturePut(m1, cfg, k.fn(w1), args, nil, nil, out)
		lie = false
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)

		m2, w2 := boot()
		if k.full {
			n := int(m2.JITFreeBytes()) - rec.CodeSize
			if _, err := m2.InstallJIT(n, func(uint64) ([]byte, error) { return make([]byte, n), nil }); err != nil {
				t.Fatal(err)
			}
		}
		cfg2, args2 := k.cfg(w2)
		aout, _, aerr := st.Adopt(m2, cfg2, k.fn(w2), args2, nil, nil)
		if refused := k.lie || k.full; refused != (aerr != nil) || refused != (aout == nil) {
			t.Fatalf("adopt %s: (%v, %v)", rec.Key, aout, aerr)
		}
	}
	if s := st.Stats(); s.WarmHits != 1 || s.Quarantined != 1 || s.RevalFailsByStep["jit-full"] != 1 {
		t.Fatalf("seeded store stats %+v, want one adoption, one quarantine, one jit-full refusal", s)
	}
	return keys[0], keys[1], keys[2]
}

func TestListAndFsck(t *testing.T) {
	dir := t.TempDir()
	applyKey, groupedKey, sweepKey := seedStore(t, dir)

	// lsLines splits a text listing into live keys, quarantined key ->
	// reason, and the lines that are neither.
	lsLines := func(out string) (live []string, quar map[string]string, rest []string) {
		quar = map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			f := strings.Fields(line)
			switch f[0] {
			case "live":
				live = append(live, f[1])
			case "quar":
				quar[f[1][:32]] = strings.TrimPrefix(f[len(f)-1], "reason=")
			default:
				rest = append(rest, line)
			}
		}
		return live, quar, rest
	}

	for _, tc := range []struct {
		args  string
		rc    int
		check func(t *testing.T, out string)
	}{
		{"ls", 0, func(t *testing.T, out string) {
			live, quar, rest := lsLines(out)
			// List sorts by file name: the refused-for-placement sweep is
			// still there, beside the adopted apply kernel.
			want := []string{applyKey, sweepKey}
			if want[0] > want[1] {
				want[0], want[1] = want[1], want[0]
			}
			if fmt.Sprint(live) != fmt.Sprint(want) {
				t.Errorf("live records %v, want %v", live, want)
			}
			if len(quar) != 1 || quar[groupedKey] != "frozen-digest-mismatch" {
				t.Errorf("quarantined %v, want %s for frozen-digest-mismatch", quar, groupedKey)
			}
			if len(rest) != 2 || rest[0] != "quarantined by reason: frozen-digest-mismatch=1" ||
				!strings.HasPrefix(rest[1], "3 records, generation ") {
				t.Errorf("summary lines %q", rest)
			}
		}},
		{"ls -json", 0, func(t *testing.T, out string) {
			var infos []spstore.Info
			if err := json.Unmarshal([]byte(out), &infos); err != nil {
				t.Fatal(err)
			}
			if len(infos) != 3 {
				t.Fatalf("%d records listed, want 3", len(infos))
			}
			for _, in := range infos {
				switch {
				case in.Key == applyKey, in.Key == sweepKey:
					if in.Quarantined || in.CodeSize == 0 || in.Effort != "full" {
						t.Errorf("live record listed as %+v", in)
					}
				case strings.HasPrefix(in.Key, groupedKey):
					if !in.Quarantined || in.Reason != "frozen-digest-mismatch" {
						t.Errorf("quarantined record listed as %+v", in)
					}
				default:
					t.Errorf("unexpected record %+v", in)
				}
			}
		}},
		{"fsck", 0, func(t *testing.T, out string) {
			if got := strings.TrimSpace(out); got != "checked 2, corrupt 0, quarantined now 0, in quarantine 1" {
				t.Errorf("fsck says %q", got)
			}
		}},
		{"fsck -json", 0, func(t *testing.T, out string) {
			var rep spstore.FsckReport
			if err := json.Unmarshal([]byte(out), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Checked != 2 || rep.Corrupt != 0 || rep.InQuarantine != 1 {
				t.Errorf("fsck report %+v", rep)
			}
		}},
		{"frobnicate", 1, func(t *testing.T, out string) {
			if out != "" {
				t.Errorf("unknown command printed %q", out)
			}
		}},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-store", dir}, strings.Fields(tc.args)...)
			if rc := run(args, &stdout, &stderr); rc != tc.rc {
				t.Fatalf("exit %d, want %d (stderr: %s)", rc, tc.rc, stderr.String())
			}
			tc.check(t, stdout.String())
		})
	}
}

// TestGCDropsOldFormat: a record an earlier build wrote ("SPSTORE1", JSON
// body) beside the live ones is listed as old, reported by fsck as
// old-format rather than as bad magic, and removed by gc — which leaves the
// live records alone.
func TestGCDropsOldFormat(t *testing.T) {
	dir := t.TempDir()
	applyKey, _, sweepKey := seedStore(t, dir)
	oldKey := strings.Repeat("ab", 16)
	body := []byte(`{"key":"` + oldKey + `","fn":4096,"effort":"full"}`)
	old := binary.LittleEndian.AppendUint64([]byte("SPSTORE1"), uint64(len(body)))
	old = append(append(old, body...), make([]byte, 8)...)
	oldPath := filepath.Join(dir, oldKey+".rec")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	cli := func(args string, rc int) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if got := run(append([]string{"-store", dir}, strings.Fields(args)...), &stdout, &stderr); got != rc {
			t.Fatalf("%s: exit %d, want %d (stderr: %s)", args, got, rc, stderr.String())
		}
		return stdout.String()
	}
	if out := cli("ls", 0); !strings.Contains(out, "old  "+oldKey) {
		t.Errorf("ls does not list the old record:\n%s", out)
	}
	if out := cli("fsck", 1); !strings.Contains(out, "corrupt "+oldKey+": old-format record") {
		t.Errorf("fsck does not call the old record old-format:\n%s", out)
	}
	if out := strings.TrimSpace(cli("gc", 0)); !strings.HasPrefix(out, "dropped 1 quarantined + 1 old-format + 0 live (LRU)") {
		t.Errorf("gc says %q", out)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("gc left the old record: %v", err)
	}
	var live []string
	for _, line := range strings.Split(strings.TrimSpace(cli("ls", 0)), "\n") {
		if f := strings.Fields(line); f[0] == "live" {
			live = append(live, f[1])
		}
	}
	want := []string{applyKey, sweepKey}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Errorf("live records after gc %v, want %v", live, want)
	}
	if out := strings.TrimSpace(cli("fsck", 0)); out != "checked 2, corrupt 0, quarantined now 0, in quarantine 0" {
		t.Errorf("fsck after gc says %q", out)
	}
}
