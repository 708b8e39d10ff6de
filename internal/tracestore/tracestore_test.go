package tracestore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func sampleRecord(n int, seed uint64) *Record {
	rec := &Record{
		Energy:     make([]float64, n),
		Issues:     make([]uint64, n),
		Done:       seed%2 == 0,
		Periodic:   true,
		HeadLen:    n / 4,
		PeriodLen:  n - n/4,
		EndRetired: seed * 3,
		RefRetired: seed * 5,
		PerRetired: seed * 7,
	}
	for i := range rec.Energy {
		rec.Energy[i] = float64(i)*1.5 + float64(seed)
		rec.Issues[i] = seed<<32 | uint64(i)
	}
	for i := range rec.EndStats {
		rec.EndStats[i] = seed + uint64(i)
		rec.RefStats[i] = seed ^ uint64(i)
		rec.PerStats[i] = seed * uint64(i+1)
	}
	return rec
}

func recordsEqual(a, b *Record) bool {
	if a.Done != b.Done || a.Unsupported != b.Unsupported || a.Periodic != b.Periodic ||
		a.HeadLen != b.HeadLen || a.PeriodLen != b.PeriodLen ||
		a.EndStats != b.EndStats || a.RefStats != b.RefStats || a.PerStats != b.PerStats ||
		a.EndRetired != b.EndRetired || a.RefRetired != b.RefRetired || a.PerRetired != b.PerRetired ||
		len(a.Energy) != len(b.Energy) || len(a.Issues) != len(b.Issues) {
		return false
	}
	for i := range a.Energy {
		if math.Float64bits(a.Energy[i]) != math.Float64bits(b.Energy[i]) {
			return false
		}
	}
	for i := range a.Issues {
		if a.Issues[i] != b.Issues[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("some trace key")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	want := sampleRecord(64, 9)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !recordsEqual(got, want) {
		t.Fatal("record changed across the store round trip")
	}
	// A different key must not alias.
	if _, ok := s.Get([]byte("some other key")); ok {
		t.Fatal("foreign key hit")
	}
	// Unsupported verdicts round-trip with empty arrays.
	ukey := []byte("unsupported")
	if err := s.Put(ukey, &Record{Unsupported: true}); err != nil {
		t.Fatal(err)
	}
	if u, ok := s.Get(ukey); !ok || !u.Unsupported || len(u.Energy) != 0 {
		t.Fatalf("unsupported verdict lost: %+v ok=%v", u, ok)
	}
}

// TestCorruptionIsAMiss flips, truncates and garbles the stored file
// every way we can think of; all must read as a miss, never a wrong
// record, and corrupt files must be dropped from the budget.
func TestCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	rec := sampleRecord(32, 1)
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	p := s.path(key)
	pristine, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() { os.WriteFile(p, pristine, 0o644) }

	mutations := map[string]func([]byte) []byte{
		"bit-flip-header":  func(b []byte) []byte { b[len(magic2)+3] ^= 0x40; return b },
		"bit-flip-payload": func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"bit-flip-cksum":   func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)/2] },
		"empty":            func(b []byte) []byte { return nil },
		"wrong-magic":      func(b []byte) []byte { copy(b, "BADMAGIC"); return b },
		"future-version":   func(b []byte) []byte { b[len(magic2)-2] = '9'; return b },
		// Well-formed and checksummed, but 5000 cycles of energy carry
		// only 10 issue words: replay would index past the issues.
		"mismatched-lengths": func([]byte) []byte {
			return Encode(&Record{Energy: make([]float64, 5000), Issues: make([]uint64, 10)})
		},
	}
	for name, mutate := range mutations {
		restore()
		blob := mutate(append([]byte(nil), pristine...))
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: corrupt record served as a hit", name)
		}
		if _, err := os.Stat(p); err == nil && len(blob) > 0 {
			t.Errorf("%s: corrupt record left on disk", name)
		}
	}

	// A length-preserving payload corruption that also fixes up the
	// checksum must still fail (structural checks), or pass only by
	// actually decoding to the written values — never panic.
	restore()
	if got, ok := s.Get(key); !ok || !recordsEqual(got, rec) {
		t.Fatal("pristine record no longer reads back")
	}
}

func TestEvictionByMtime(t *testing.T) {
	dir := t.TempDir()
	// v2 record sizes are content-dependent, so every key stores the
	// same record: the budget math stays exact.
	one := sampleRecord(64, 1)
	oneSize := int64(len(Encode(one)))
	// Budget for three records, not four.
	s, err := Open(dir, 3*oneSize)
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	for i, k := range keys[:3] {
		if err := s.Put(k, one); err != nil {
			t.Fatal(err)
		}
		// Distinct, strictly increasing mtimes without sleeping.
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.path(k), mt, mt)
	}
	// Touch "a" (oldest mtime) via Get so it becomes newest; then the
	// overflowing Put must evict "b".
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := s.Put(keys[3], one); err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() > 3*oneSize {
		t.Fatalf("store over budget after eviction: %d > %d", s.SizeBytes(), 3*oneSize)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Error("b (oldest mtime) survived eviction")
	}
	for _, k := range [][]byte{keys[0], keys[2], keys[3]} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%q evicted despite newer mtime", k)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("big"), sampleRecord(4096, 1)); err == nil {
		t.Fatal("oversize Put succeeded")
	}
	if s.Len() != 0 {
		t.Fatal("oversize record left on disk")
	}
}

// TestConcurrentSharedDirectory exercises the cross-process contract
// in-process: many goroutines over two Store handles on one directory,
// racing Puts and Gets of overlapping keys. Run under -race.
func TestConcurrentSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{s1, s2}
	const keys = 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < 40; i++ {
				k := []byte(fmt.Sprintf("key-%d", (g+i)%keys))
				want := sampleRecord(32, uint64((g+i)%keys))
				if i%3 == 0 {
					s.Put(k, want)
					continue
				}
				if got, ok := s.Get(k); ok && !recordsEqual(got, want) {
					t.Errorf("goroutine %d: stale or foreign record under %s", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStrayFilesIgnored checks non-record files neither count against
// the budget nor get evicted.
func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(stray, bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	one := sampleRecord(16, 1)
	s, err := Open(dir, int64(len(Encode(one)))+8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), one); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("k")); !ok {
		t.Fatal("record evicted to make room for a stray file")
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatal("stray file deleted by eviction")
	}
}

// TestEvictTolerantOfConcurrentUnlink reproduces the shared-directory
// race where another process unlinks a record between the eviction
// scan's ReadDir and its Remove. The vanished bytes are gone either
// way, so the scan must count them as freed; charging them as still
// resident makes it evict younger records to cover phantom bytes.
func TestEvictTolerantOfConcurrentUnlink(t *testing.T) {
	dir := t.TempDir()
	one := sampleRecord(64, 1) // same record per key: exact budget math
	oneSize := int64(len(Encode(one)))
	s, err := Open(dir, 3*oneSize) // room for three records
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	for i, k := range keys[:3] {
		if err := s.Put(k, one); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.path(k), mt, mt)
	}

	// The other process beats us to every unlink: the file is already
	// gone by the time our Remove runs.
	defer func() { removeRecord = os.Remove }()
	removeRecord = func(path string) error {
		os.Remove(path)
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}

	// The overflowing Put needs exactly one eviction ("a", oldest).
	if err := s.Put(keys[3], one); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("a (oldest) survived eviction")
	}
	// "b" and "c" must survive: the ENOENT on "a" freed its bytes.
	for _, k := range keys[1:] {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%q evicted to cover phantom bytes", k)
		}
	}
}

// TestTwoStoresRacingOnOneDir is the cross-process regression test for
// ENOENT tolerance: two byte-starved stores on one directory, both
// evicting under each other's feet while Gets race the unlinks. Every
// failure mode must surface as a miss, never an error or a panic. The
// directory starts with half the keys pre-seeded as files an older
// binary left (v1 magic, arbitrary bytes), which Gets must unlink as
// misses while eviction counts them like any record. Run under -race.
func TestTwoStoresRacingOnOneDir(t *testing.T) {
	dir := t.TempDir()
	one := sampleRecord(64, 1)
	budget := 3 * int64(len(Encode(one))) // both stores always over budget
	s1, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{s1, s2}
	const keys = 12
	for n := 0; n < keys; n += 2 {
		k := []byte(fmt.Sprintf("key-%d", n))
		blob := append([]byte(v1Magic), bytes.Repeat([]byte{byte(n)}, 1500)...)
		if err := os.WriteFile(s1.path(k), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < 60; i++ {
				n := (g*7 + i) % keys
				k := []byte(fmt.Sprintf("key-%d", n))
				if i%2 == 0 {
					if err := s.Put(k, sampleRecord(64, uint64(n))); err != nil {
						t.Errorf("goroutine %d: Put: %v", g, err)
					}
					continue
				}
				if got, ok := s.Get(k); ok && !recordsEqual(got, sampleRecord(64, uint64(n))) {
					t.Errorf("goroutine %d: foreign record under %s", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if sz := s1.SizeBytes(); sz > budget {
		t.Errorf("store over budget after racing evictions: %d > %d", sz, budget)
	}
}
