package spstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// recordFor is testRecord under key n, with a body whose length depends on
// n so that a reused file is both cut and stretched.
func recordFor(n int) *Record {
	rec := testRecord()
	rec.Key = Key{Hi: 0xfeed, Lo: uint64(n)}.String()
	rec.Code = make([]byte, 16+(n*37)%200)
	for i := range rec.Code {
		rec.Code[i] = byte(n + i)
	}
	rec.CodeSize = len(rec.Code)
	return rec
}

func dirFiles(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []os.DirEntry
	for _, e := range ents {
		if !e.IsDir() {
			files = append(files, e)
		}
	}
	return files
}

// TestManifestWrittenInPlace: puts keep one manifest file — the same one —
// holding the latest generation, and leave no temp file behind.
func TestManifestWrittenInPlace(t *testing.T) {
	s := openStore(t, Options{})
	path := filepath.Join(s.Dir(), manifestName)
	var first os.FileInfo
	for n := 0; n < 12; n++ { // past 9: the text lengthens
		if err := s.Put(recordFor(n)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = fi
		} else if !os.SameFile(first, fi) {
			t.Fatalf("put %d replaced the manifest file", n)
		}
	}
	for _, e := range dirFiles(t, s.Dir()) {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	s.Close()
	s2 := openStore(t, Options{Dir: s.Dir()})
	if g := s2.Generation(); g != 12 {
		t.Fatalf("reopened generation = %d, want 12", g)
	}

	// A rebuilt generation restarts lower than the garbage it replaces:
	// the next write must not leave the garbage's tail behind.
	s2.Close()
	if err := os.WriteFile(path, []byte(`{"generation": 123456789012345678`), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, Options{Dir: s.Dir()})
	if err := s3.Put(recordFor(100)); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	s4 := openStore(t, Options{Dir: s.Dir()})
	if g := s4.Generation(); g != 13 { // 12 records counted, one put
		t.Fatalf("generation after rebuild and put = %d, want 13", g)
	}
}

// TestQuarantineBoundedAndReused: a store that quarantines and re-puts in a
// loop keeps the newest quarantineKeep files, and once the bound is reached
// writes each record into the file that was pushed out instead of creating
// one. Every record stays readable, also across a reopen.
func TestQuarantineBoundedAndReused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	qdir := filepath.Join(dir, quarantineDir)
	const keys = 5
	cycle := func(s *Store, i int) {
		t.Helper()
		rec := recordFor(i % keys)
		k := keyOf(t, rec)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		if !ok || got.Key != rec.Key || string(got.Code) != string(rec.Code) {
			t.Fatalf("cycle %d: record not read back as written (ok %v)", i, ok)
		}
		s.Quarantine(k, "test")
	}
	for i := 0; i < quarantineKeep; i++ {
		cycle(s, i)
	}
	if n := len(dirFiles(t, qdir)); n != quarantineKeep {
		t.Fatalf("quarantine holds %d files, want %d", n, quarantineKeep)
	}

	// From here on every quarantine pushes the oldest file out and the
	// next put writes into it.
	oldest := s.listQuarantine()[0]
	before, err := os.Stat(filepath.Join(qdir, oldest))
	if err != nil {
		t.Fatal(err)
	}
	cycle(s, quarantineKeep) // quarantines: oldest is retired
	rec := recordFor(keys + 1)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(s.pathFor(keyOf(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("the put after a retirement created a file instead of reusing the retired one")
	}
	if _, err := os.Stat(filepath.Join(qdir, oldest)); !os.IsNotExist(err) {
		t.Fatal("the reused file is still listed in quarantine")
	}
	if got, ok := s.Get(keyOf(t, rec)); !ok || string(got.Code) != string(rec.Code) {
		t.Fatal("record written into a reused file does not read back")
	}

	// A reopened store learns the bound from the directory.
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	for i := 0; i < 3*keys; i++ {
		cycle(s2, i)
	}
	if n := len(dirFiles(t, qdir)); n > quarantineKeep+maxRetired {
		t.Fatalf("quarantine holds %d files after a reopen, want at most %d", n, quarantineKeep+maxRetired)
	}
	for _, e := range dirFiles(t, dir) {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	// Quarantines no put follows do not pile up either.
	for i := 0; i < keys; i++ {
		if err := s2.Put(recordFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < keys; i++ {
			_ = os.WriteFile(s2.pathFor(keyOf(t, recordFor(i))), []byte("junk"), 0o644)
			s2.Quarantine(keyOf(t, recordFor(i)), "test")
		}
	}
	if n := len(dirFiles(t, qdir)); n > quarantineKeep+maxRetired {
		t.Fatalf("quarantine holds %d files, want at most %d", n, quarantineKeep+maxRetired)
	}

	// GC empties the quarantine; the store must not go on handing out
	// names of files that are gone.
	if _, err := s2.GC(0); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(recordFor(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(keyOf(t, recordFor(0))); !ok {
		t.Fatal("put after GC lost")
	}
}

// TestTwoStoresShareRetiredFiles: two stores over one directory each learn
// the same quarantine listing; a retired file must go to exactly one of
// them. Every record either of them put reads back whole under its key.
func TestTwoStoresShareRetiredFiles(t *testing.T) {
	dir := t.TempDir()
	seed := openStore(t, Options{Dir: dir})
	for i := 0; i < quarantineKeep+maxRetired; i++ {
		rec := recordFor(i)
		if err := seed.Put(rec); err != nil {
			t.Fatal(err)
		}
		seed.Quarantine(keyOf(t, rec), "seed")
	}
	seed.Close()

	// Both open before either writes: Open sweeps temp files.
	stores := []*Store{openStore(t, Options{Dir: dir}), openStore(t, Options{Dir: dir})}
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				rec := recordFor(1000*(w+1) + i)
				k := keyOf(t, rec)
				if err := s.Put(rec); err != nil {
					t.Errorf("store %d put %d: %v", w, i, err)
					return
				}
				if i%2 == 0 {
					s.Quarantine(k, "churn")
					if err := s.Put(rec); err != nil {
						t.Errorf("store %d re-put %d: %v", w, i, err)
						return
					}
				}
			}
		}(w, s)
	}
	wg.Wait()

	check := openStore(t, Options{Dir: dir})
	for w := 0; w < 2; w++ {
		for i := 0; i < 60; i++ {
			rec := recordFor(1000*(w+1) + i)
			got, ok := check.Get(keyOf(t, rec))
			if !ok || got.Key != rec.Key || string(got.Code) != string(rec.Code) {
				t.Fatalf("store %d record %d does not read back (ok %v)", w, i, ok)
			}
		}
	}
	if st := check.Stats(); st.Quarantined != 0 {
		t.Fatalf("%d records were corrupt on read", st.Quarantined)
	}
}
