package spstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Store. Only Dir is required.
type Options struct {
	// Dir is the store directory (created if missing; quarantined records
	// live in Dir/quarantine).
	Dir string
	// Inject is the fault-injection seam (internal/faultinject's
	// StoreHook): called with a store fault-point name, a true return
	// makes the store simulate that fault (torn write, truncated record,
	// bit-flip, stale assumption digest). Nil in production.
	Inject func(point string) bool
}

// Store fault-point names (mirrored by internal/faultinject's store
// points; spstore takes them as strings to stay decoupled).
const (
	InjectTornWrite   = "store-torn-write"
	InjectTruncate    = "store-truncate"
	InjectBitFlip     = "store-bit-flip"
	InjectStaleAssume = "store-stale-assume"
)

// Stats is a point-in-time snapshot of the store counters (lifetime
// totals for this Store instance, except Generation: the manifest's).
type Stats struct {
	Puts        uint64 `json:"puts"`
	LocalHits   uint64 `json:"local_hits"`
	LocalMisses uint64 `json:"local_misses"`
	WarmHits    uint64 `json:"warm_hits"`
	Relocated   uint64 `json:"relocated"` // warm hits installed away from the recorded address
	RevalFails  uint64 `json:"warm_revalidation_failures"`
	Quarantined uint64 `json:"quarantined"`
	RevalNS     int64  `json:"revalidation_ns"`
	Generation  uint64 `json:"generation"`

	// RevalFailsByStep splits RevalFails by the step of Adopt that refused:
	// "orig-code-changed", "frozen-digest-mismatch", ... quarantine the
	// record; the placement misses "jit-full" and "rel32-range" leave it.
	RevalFailsByStep map[string]uint64 `json:"warm_revalidation_failures_by_step,omitempty"`
}

// Store is a crash-safe persistent rewrite store over one directory.
// All methods are safe for concurrent use; the write path is atomic
// (unique temp + fsync + rename) so concurrent writers — or a writer
// dying mid-put — can never leave a half-record under a live key.
//
// A store that has settled neither creates nor deletes files: the manifest
// is overwritten where it lies, and a record is written into a file the
// bounded quarantine has retired (see retire), so a service that keeps
// re-adopting and re-tracing costs the file system two fsyncs and two
// renames per put whatever else has been created or deleted around it.
type Store struct {
	dir string
	opt Options

	mu     sync.Mutex // manifest writes + put sequencing
	putSeq uint64
	gen    atomic.Uint64

	qmu     sync.Mutex // the three below
	qknown  bool       // quar lists the quarantine directory
	quar    []string   // quarantined file names, oldest first
	retired []string   // names pushed out of quar, for writeAtomic to reuse

	st     counters
	closed atomic.Bool
}

type counters struct {
	puts, localHits, localMisses     atomic.Uint64
	warmHits, relocated, quarantined atomic.Uint64
	revalNS                          atomic.Int64

	failMu sync.Mutex
	fails  map[string]uint64 // revalidation failures by step
}

func (c *counters) revalFail(step string) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.fails == nil {
		c.fails = make(map[string]uint64)
	}
	c.fails[step]++
}

const (
	recordExt     = ".rec"
	tmpSuffix     = ".tmp"
	manifestName  = "manifest.json"
	quarantineDir = "quarantine"

	// quarantineKeep is how many quarantined records the store holds on
	// to, newest first; maxRetired how many retired ones may wait for a
	// write before the oldest is deleted instead.
	quarantineKeep = 128
	maxRetired     = 8
)

// tmpSeq makes temp names unique within the process; the pid makes them
// unique across processes.
var tmpSeq atomic.Uint64

// manifest is the store's advisory generation counter. It is overwritten
// in place and fsynced after every put; when it is missing or torn (a
// crash between record rename and manifest write, or inside the write),
// Open rebuilds it from a directory scan — the records themselves are the
// source of truth.
type manifest struct {
	Generation uint64 `json:"generation"`
}

// Open opens (creating if needed) the store at opts.Dir: ensures the
// directory layout, sweeps stray temp files from crashed writers,
// and loads or rebuilds the manifest.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("spstore: Options.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("spstore: %w", err)
	}
	s := &Store{dir: opts.Dir, opt: opts}

	// A crashed writer leaves only uniquely-named temp files; they were
	// never renamed into place, so removing them is always safe.
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("spstore: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(opts.Dir, e.Name()))
		}
	}

	if b, err := os.ReadFile(filepath.Join(opts.Dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(b, &m) == nil {
			s.gen.Store(m.Generation)
		} else {
			// Torn manifest rename: rebuild from the record count. The
			// generation is advisory (a writer-epoch diagnostic), so any
			// value at least as large as the record population is sound.
			s.gen.Store(uint64(s.countRecords()))
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("spstore: %w", err)
	} else {
		s.gen.Store(uint64(s.countRecords()))
	}
	return s, nil
}

func (s *Store) countRecords() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), recordExt) {
			n++
		}
	}
	return n
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the current manifest generation.
func (s *Store) Generation() uint64 { return s.gen.Load() }

func (s *Store) pathFor(k Key) string { return s.pathOf(k.String()) }

// pathOf is pathFor of a key already rendered by Key.String.
func (s *Store) pathOf(key string) string {
	return filepath.Join(s.dir, key+recordExt)
}

func (s *Store) inject(point string) bool {
	return s.opt.Inject != nil && s.opt.Inject(point)
}

// Put writes rec under its key: atomic write (temp + fsync + rename)
// plus a manifest generation bump. The injected corruption modes
// deliberately write a *bad* final file through the same rename path —
// simulating a crash mid-write on a filesystem without atomic rename, a
// torn sector, or silent media corruption — precisely so the read path
// has real faults to catch.
func (s *Store) Put(rec *Record) error {
	if s.closed.Load() {
		return errors.New("spstore: store is closed")
	}
	var k Key
	if _, err := fmt.Sscanf(rec.Key, "%16x%16x", &k.Hi, &k.Lo); err != nil {
		return fmt.Errorf("spstore: record key %q: %w", rec.Key, err)
	}

	s.mu.Lock()
	s.putSeq++
	seq := s.putSeq
	rec.Generation = s.gen.Load() + 1
	s.mu.Unlock()

	if s.inject(InjectStaleAssume) {
		// Persist a record whose assumption digests lie: flip one frozen
		// digest (or the original-code digest) before encoding. Checksum
		// and decode stay valid — only revalidation can reject this one.
		r := *rec
		if len(r.Frozen) > 0 {
			fr := append([]FrozenDigest(nil), r.Frozen...)
			fr[int(seq)%len(fr)].Hash ^= 1 << (seq % 64)
			r.Frozen = fr
		} else {
			r.OrigHash ^= 1 << (seq % 64)
		}
		rec = &r
	}

	enc, err := rec.encode()
	if err != nil {
		return err
	}

	switch {
	case s.inject(InjectTornWrite):
		// Torn write: roughly half the encoding lands under the live
		// name. Framing/checksum verification rejects it on read.
		enc = enc[:len(recordMagic)+8+(len(enc)-len(recordMagic)-16)/2]
	case s.inject(InjectTruncate):
		// Truncated record: the trailing checksum (and possibly body
		// bytes) are missing.
		cut := int(seq%16) + 1
		if cut > len(enc) {
			cut = len(enc)
		}
		enc = enc[:len(enc)-cut]
	case s.inject(InjectBitFlip):
		// Silent media corruption: one bit flips after the checksum was
		// computed. Target the back half so the flip tends to land in
		// the code bytes.
		enc = append([]byte(nil), enc...)
		bit := seq % uint64(len(enc)*4)
		idx := len(enc)/2 + int(bit/8)%(len(enc)-len(enc)/2)
		enc[idx] ^= 1 << (bit % 8)
	}

	if err := s.writeAtomic(s.pathFor(k), enc); err != nil {
		return err
	}
	s.bumpGeneration()
	s.st.puts.Add(1)
	return nil
}

// writeAtomic writes data to a temp file in path's directory, fsyncs it,
// and renames it into place. The temp file is a retired quarantine file
// when there is one, and a new one otherwise.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := s.reuse(path, len(data))
	if tmp == nil {
		var err error
		tmp, err = os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+tmpSuffix)
		if err != nil {
			return fmt.Errorf("spstore: %w", err)
		}
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("spstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("spstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("spstore: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("spstore: %w", err)
	}
	return nil
}

// reuse claims a retired quarantine file as the temp file for a write of
// size bytes to path: renamed to a unique temp name beside path (so that
// of two stores over one directory only one gets it, and a crash leaves a
// stray that Open sweeps), cut or stretched to size — its blocks stay
// where they are — and opened for writing. It returns nil when nothing is
// retired or the claim fails; the caller then creates a file.
func (s *Store) reuse(path string, size int) *os.File {
	s.qmu.Lock()
	n := len(s.retired)
	if n == 0 {
		s.qmu.Unlock()
		return nil
	}
	name := s.retired[n-1]
	s.retired = s.retired[:n-1]
	s.qmu.Unlock()

	tmpName := fmt.Sprintf("%s.%d-%d%s", path, os.Getpid(), tmpSeq.Add(1), tmpSuffix)
	if err := os.Rename(filepath.Join(s.dir, quarantineDir, name), tmpName); err != nil {
		return nil // gone (GC, another store): not an error
	}
	f, err := os.OpenFile(tmpName, os.O_WRONLY, 0o600)
	if err == nil {
		if err = f.Truncate(int64(size)); err == nil {
			return f
		}
		f.Close()
	}
	os.Remove(tmpName)
	return nil
}

// retire records that name has just entered the quarantine directory and
// keeps the directory bounded: past quarantineKeep files the oldest are
// handed to the write path to be overwritten — not deleted, so that a
// store which quarantines and re-puts in a loop stops allocating and
// freeing inodes altogether. Only when writes do not keep up (maxRetired
// waiting) is a file removed.
func (s *Store) retire(name string) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qknown {
		s.quar = append(s.quar, name)
	} else {
		s.quar = s.listQuarantine() // name is among them
		s.qknown = true
	}
	for len(s.quar) > quarantineKeep {
		s.retired = append(s.retired, s.quar[0])
		s.quar = s.quar[1:]
	}
	for len(s.retired) > maxRetired {
		_ = os.Remove(filepath.Join(s.dir, quarantineDir, s.retired[0]))
		s.retired = s.retired[1:]
	}
}

// quarantineName is what Quarantine calls a record it moves aside:
// "<key>.g<generation>.<why>.rec" — the generation so that repeat offenders
// under one key never collide and the directory can be aged without a stat,
// the reason so that a listing says why the record is there long after the
// process that refused it is gone.
func quarantineName(k Key, gen uint64, reason string) string {
	// why: the reason's leading words, up to the first character a step name
	// or an error's headline would not contain.
	why := strings.ToLower(reason)
	if end := strings.IndexFunc(why, func(r rune) bool {
		return !(r == ' ' || r == '-' || 'a' <= r && r <= 'z' || '0' <= r && r <= '9')
	}); end >= 0 {
		why = why[:end]
	}
	why = strings.ReplaceAll(strings.TrimSpace(why), " ", "-")
	if why == "" {
		why = "unknown"
	}
	return fmt.Sprintf("%s.g%d.%s%s", k, gen, why, recordExt)
}

// parseQuarantineName recovers the generation and the reason from a
// quarantined file's name; both are zero for a name Quarantine did not make.
func parseQuarantineName(name string) (gen uint64, why string) {
	parts := strings.Split(strings.TrimSuffix(name, recordExt), ".")
	if len(parts) >= 2 {
		fmt.Sscanf(parts[1], "g%d", &gen)
	}
	if len(parts) >= 3 {
		why = parts[2]
	}
	return gen, why
}

// listQuarantine returns the quarantine directory's file names, oldest
// first: by the generation Quarantine put in the name, then by name.
func (s *Store) listQuarantine() []string {
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return nil
	}
	type aged struct {
		name string
		gen  uint64
	}
	var all []aged
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		gen, _ := parseQuarantineName(e.Name())
		all = append(all, aged{e.Name(), gen})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].gen != all[j].gen {
			return all[i].gen < all[j].gen
		}
		return all[i].name < all[j].name
	})
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.name
	}
	return names
}

func (s *Store) bumpGeneration() {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gen.Add(1)
	b, _ := json.Marshal(manifest{Generation: g})
	_ = s.writeManifest(b)
}

// writeManifest overwrites the manifest where it lies and fsyncs it. No
// temp file and no rename: the manifest is advisory and a torn one is
// rebuilt by Open, so it does not need a fresh inode per put.
func (s *Store) writeManifest(b []byte) error {
	f, err := os.OpenFile(filepath.Join(s.dir, manifestName), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(b, 0); err != nil {
		return err
	}
	// The generation only grows, so the text only lengthens — except after
	// a rebuild, which may restart lower over longer garbage.
	if fi, err := f.Stat(); err == nil && fi.Size() != int64(len(b)) {
		if err := f.Truncate(int64(len(b))); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Get looks the key up in the store directory. A file that fails framing,
// checksum or decode is quarantined and reported as a miss — corrupt
// bytes are never returned.
func (s *Store) Get(k Key) (*Record, bool) {
	key := k.String()
	path := s.pathOf(key)
	if b, err := os.ReadFile(path); err == nil {
		rec, derr := decodeRecord(b)
		if derr == nil && rec.Key == key {
			s.st.localHits.Add(1)
			return rec, true
		}
		reason := "key mismatch"
		if derr != nil {
			reason = derr.Error()
		}
		s.Quarantine(k, reason)
	}
	s.st.localMisses.Add(1)
	return nil, false
}

// Quarantine moves the key's record file into the quarantine directory
// (see quarantineName) and emits the flight-recorder event. Missing files
// are a no-op. The directory keeps the newest quarantineKeep files (see
// retire).
func (s *Store) Quarantine(k Key, reason string) {
	src := s.pathFor(k)
	name := quarantineName(k, s.gen.Load(), reason)
	if err := os.Rename(src, filepath.Join(s.dir, quarantineDir, name)); err != nil {
		return
	}
	s.retire(name)
	s.st.quarantined.Add(1)
	emitPersist(obs.Event{Kind: obs.KindPersist, Reason: "quarantine: " + reason})
}

// emitPersist records a KindPersist flight-recorder event when the
// tracer is enabled (the Kind is pre-set by callers; Reason carries the
// specific lifecycle step).
func emitPersist(e obs.Event) {
	if !obs.Enabled() {
		return
	}
	e.Tier = obs.TierNone
	obs.Emit(e)
}

// Info summarizes one stored record for ls/fsck listings.
type Info struct {
	Key         string    `json:"key"`
	File        string    `json:"file"`
	Size        int64     `json:"size"`
	ModTime     time.Time `json:"mod_time"`
	Fn          uint64    `json:"fn,omitempty"`
	Effort      string    `json:"effort,omitempty"`
	CodeSize    int       `json:"code_size,omitempty"`
	Guards      int       `json:"guards,omitempty"`
	Generation  uint64    `json:"generation,omitempty"`
	Quarantined bool      `json:"quarantined,omitempty"`
	// OldFormat marks a live file an earlier build wrote (oldMagic): no
	// lookup can name it, and GC removes it.
	OldFormat bool `json:"old_format,omitempty"`
	// Reason is why a quarantined record was moved aside: the revalidation
	// step that refused it, or the headline of the decode error.
	Reason string `json:"reason,omitempty"`
	// Err is set by Fsck when the record fails verification.
	Err string `json:"err,omitempty"`
}

// List returns every record in the store (live tier and quarantine),
// sorted by file name, with a best-effort decoded summary for live
// records.
func (s *Store) List() ([]Info, error) {
	var out []Info
	for _, sub := range []struct {
		dir        string
		quarantine bool
	}{{s.dir, false}, {filepath.Join(s.dir, quarantineDir), true}} {
		ents, err := os.ReadDir(sub.dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("spstore: %w", err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), recordExt) {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			in := Info{
				Key:         strings.TrimSuffix(e.Name(), recordExt),
				File:        filepath.Join(sub.dir, e.Name()),
				Size:        fi.Size(),
				ModTime:     fi.ModTime(),
				Quarantined: sub.quarantine,
			}
			if sub.quarantine {
				_, in.Reason = parseQuarantineName(e.Name())
			} else if b, err := os.ReadFile(in.File); err == nil {
				rec, derr := decodeRecord(b)
				switch {
				case derr == nil:
					in.Fn, in.Effort = rec.Fn, rec.Effort
					in.CodeSize, in.Guards = rec.CodeSize, len(rec.Guards)
					in.Generation = rec.Generation
				case errors.Is(derr, errOldFormat):
					in.OldFormat = true
				}
			}
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out, nil
}

// FsckReport summarizes a store verification pass.
type FsckReport struct {
	Checked      int    `json:"checked"`
	Corrupt      int    `json:"corrupt"`
	Quarantined  int    `json:"quarantined_now"`
	InQuarantine int    `json:"in_quarantine"`
	Bad          []Info `json:"bad,omitempty"`
}

// Fsck verifies the framing, checksum and decode of every live record.
// With quarantine=true, corrupt records are moved to the quarantine
// directory; otherwise they are only reported. A record an earlier build
// wrote counts as corrupt, its error reading "old-format record".
func (s *Store) Fsck(quarantine bool) (*FsckReport, error) {
	rep := &FsckReport{}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("spstore: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), recordExt) {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		name := strings.TrimSuffix(e.Name(), recordExt)
		rep.Checked++
		b, err := os.ReadFile(path)
		var derr error
		if err != nil {
			derr = err
		} else {
			var rec *Record
			if rec, derr = decodeRecord(b); derr == nil && rec.Key != name {
				derr = fmt.Errorf("key mismatch: record says %s, file says %s", rec.Key, name)
			}
		}
		if derr == nil {
			continue
		}
		rep.Corrupt++
		rep.Bad = append(rep.Bad, Info{Key: name, File: path, Err: derr.Error()})
		if quarantine {
			var k Key
			if _, serr := fmt.Sscanf(name, "%16x%16x", &k.Hi, &k.Lo); serr == nil {
				s.Quarantine(k, "fsck: "+derr.Error())
			} else {
				// Not even a valid key name: move it verbatim.
				if os.Rename(path, filepath.Join(s.dir, quarantineDir, e.Name())) == nil {
					s.retire(e.Name())
				}
				s.st.quarantined.Add(1)
			}
			rep.Quarantined++
		}
	}
	if qents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir)); err == nil {
		for _, e := range qents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), recordExt) {
				rep.InQuarantine++
			}
		}
	}
	return rep, nil
}

// GCReport summarizes a garbage-collection pass.
type GCReport struct {
	QuarantineDropped int   `json:"quarantine_dropped"`
	OldFormatDropped  int   `json:"old_format_dropped"`
	LRUDropped        int   `json:"lru_dropped"`
	BytesFreed        int64 `json:"bytes_freed"`
	BytesLive         int64 `json:"bytes_live"`
}

// GC drops every quarantined record and every live one an earlier build
// wrote (Info.OldFormat), then — when maxBytes > 0 — evicts live records
// oldest-first until the live tier fits the budget.
func (s *Store) GC(maxBytes int64) (*GCReport, error) {
	rep := &GCReport{}
	qdir := filepath.Join(s.dir, quarantineDir)
	s.qmu.Lock()
	s.qknown, s.quar, s.retired = false, nil, nil
	s.qmu.Unlock()
	if ents, err := os.ReadDir(qdir); err == nil {
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			if fi, err := e.Info(); err == nil {
				rep.BytesFreed += fi.Size()
			}
			if os.Remove(filepath.Join(qdir, e.Name())) == nil {
				rep.QuarantineDropped++
			}
		}
	}
	infos, err := s.List()
	if err != nil {
		return nil, err
	}
	var live []Info
	for _, in := range infos {
		switch {
		case in.Quarantined:
		case in.OldFormat:
			if os.Remove(in.File) == nil {
				rep.OldFormatDropped++
				rep.BytesFreed += in.Size
			}
		default:
			live = append(live, in)
			rep.BytesLive += in.Size
		}
	}
	if maxBytes > 0 && rep.BytesLive > maxBytes {
		sort.Slice(live, func(i, j int) bool { return live[i].ModTime.Before(live[j].ModTime) })
		for _, in := range live {
			if rep.BytesLive <= maxBytes {
				break
			}
			if os.Remove(in.File) == nil {
				rep.LRUDropped++
				rep.BytesFreed += in.Size
				rep.BytesLive -= in.Size
			}
		}
	}
	if rep.QuarantineDropped+rep.OldFormatDropped+rep.LRUDropped > 0 {
		s.bumpGeneration()
	}
	return rep, nil
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:        s.st.puts.Load(),
		LocalHits:   s.st.localHits.Load(),
		LocalMisses: s.st.localMisses.Load(),
		WarmHits:    s.st.warmHits.Load(),
		Relocated:   s.st.relocated.Load(),
		Quarantined: s.st.quarantined.Load(),
		RevalNS:     s.st.revalNS.Load(),
		Generation:  s.gen.Load(),
	}
	s.st.failMu.Lock()
	for step, n := range s.st.fails {
		if st.RevalFailsByStep == nil {
			st.RevalFailsByStep = make(map[string]uint64, len(s.st.fails))
		}
		st.RevalFailsByStep[step] = n
		st.RevalFails += n
	}
	s.st.failMu.Unlock()
	return st
}

// TallyText renders counts by name as "a=1 b=2", names in order.
func TallyText(counts map[string]uint64) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s=%d", name, counts[name])
	}
	return strings.Join(names, " ")
}

// RevalFailsText renders the revalidation failures with their split by
// step: "3 (jit-full=2 orig-code-changed=1)", or "0".
func (st Stats) RevalFailsText() string {
	if len(st.RevalFailsByStep) == 0 {
		return strconv.FormatUint(st.RevalFails, 10)
	}
	return fmt.Sprintf("%d (%s)", st.RevalFails, TallyText(st.RevalFailsByStep))
}

// Close marks the store closed: later Puts fail. Reads are unaffected.
func (s *Store) Close() error {
	s.closed.Store(true)
	return nil
}
