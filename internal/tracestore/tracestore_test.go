package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// keyAddr is a store address for a test's key: the hex SHA-256 of its
// bytes.
func keyAddr(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

func sampleRecord(n int, seed uint64) *Record {
	rec := &Record{
		Energy:     make([]float64, n),
		Issues:     make([]uint64, n),
		Done:       seed%2 == 0,
		EndRetired: seed * 3,
	}
	for i := range rec.Energy {
		rec.Energy[i] = float64(i)*1.5 + float64(seed)
		rec.Issues[i] = seed<<32 | uint64(i)
	}
	for i := range rec.EndStats {
		rec.EndStats[i] = seed + uint64(i)
	}
	return rec
}

// record decodes a view into a fresh record, as Decode would, in one
// span through a window of the view's lag and its cycles.
func (e *Encoded) record() *Record {
	rec := e.Header()
	n, lag := e.Cycles(), e.Lag()
	s := e.Stream()
	energy, issues := s.Next(make([]float64, lag+n), make([]uint64, lag+n), n)
	rec.Energy, rec.Issues = append([]float64{}, energy...), append([]uint64{}, issues...)
	return &rec
}

func recordsEqual(a, b *Record) bool {
	if a.Done != b.Done || a.Unsupported != b.Unsupported ||
		a.EndStats != b.EndStats || a.EndRetired != b.EndRetired ||
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
	if _, ok := s.Get(keyAddr(key)); ok {
		t.Fatal("hit on empty store")
	}
	want := sampleRecord(64, 9)
	put, err := s.Put(keyAddr(key), want)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(put.record(), want) || put.Size() != len(Encode(want)) {
		t.Fatal("Put's view is not the record it wrote")
	}
	got, ok := s.Get(keyAddr(key))
	if !ok {
		t.Fatal("miss after Put")
	}
	if !recordsEqual(got.record(), want) {
		t.Fatal("record changed across the store round trip")
	}
	// A different key must not alias.
	if _, ok := s.Get(keyAddr([]byte("some other key"))); ok {
		t.Fatal("foreign key hit")
	}
	// Unsupported verdicts round-trip with empty arrays.
	ukey := []byte("unsupported")
	if _, err := s.Put(keyAddr(ukey), &Record{Unsupported: true}); err != nil {
		t.Fatal(err)
	}
	if u, ok := s.Get(keyAddr(ukey)); !ok || !u.Header().Unsupported || u.Cycles() != 0 {
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
	if _, err := s.Put(keyAddr(key), rec); err != nil {
		t.Fatal(err)
	}
	p := s.addrPath(keyAddr(key))
	pristine, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() { os.WriteFile(p, pristine, 0o644) }

	mutations := map[string]func([]byte) []byte{
		"bit-flip-header":  func(b []byte) []byte { b[len(magic3)+3] ^= 0x40; return b },
		"bit-flip-payload": func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"bit-flip-cksum":   func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)/2] },
		"empty":            func(b []byte) []byte { return nil },
		"wrong-magic":      func(b []byte) []byte { copy(b, "BADMAGIC"); return b },
		"future-version":   func(b []byte) []byte { b[len(magic3)-2] = '9'; return b },
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
		if _, ok := s.Get(keyAddr(key)); ok {
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
	if got, ok := s.Get(keyAddr(key)); !ok || !recordsEqual(got.record(), rec) {
		t.Fatal("pristine record no longer reads back")
	}
}

func TestEvictionByMtime(t *testing.T) {
	dir := t.TempDir()
	// Record sizes are content-dependent, so every key stores the same
	// record: the budget math stays exact.
	one := sampleRecord(64, 1)
	oneSize := int64(len(Encode(one)))
	// Budget for eight records, not nine; the low-water mark is seven.
	s, err := Open(dir, 8*oneSize)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 9)
	for i := range keys {
		keys[i] = []byte{'a' + byte(i)}
	}
	for i, k := range keys[:8] {
		if _, err := s.Put(keyAddr(k), one); err != nil {
			t.Fatal(err)
		}
		// Distinct, strictly increasing mtimes without sleeping.
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.addrPath(keyAddr(k)), mt, mt)
	}
	// Touch "a" (oldest mtime) via Get so it becomes newest; then the
	// overflowing Put must evict "b" and "c", the two oldest, down to
	// the low-water mark.
	if _, ok := s.Get(keyAddr(keys[0])); !ok {
		t.Fatal("a missing before eviction")
	}
	if _, err := s.Put(keyAddr(keys[8]), one); err != nil {
		t.Fatal(err)
	}
	if sz := s.SizeBytes(); sz != 7*oneSize {
		t.Fatalf("store holds %d bytes after eviction, want the low-water mark's %d", sz, 7*oneSize)
	}
	for _, k := range keys[1:3] {
		if _, ok := s.Get(keyAddr(k)); ok {
			t.Errorf("%q (oldest mtime) survived eviction", k)
		}
	}
	for _, k := range append([][]byte{keys[0]}, keys[3:]...) {
		if _, ok := s.Get(keyAddr(k)); !ok {
			t.Errorf("%q evicted despite newer mtime", k)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(keyAddr([]byte("big")), sampleRecord(4096, 1)); err == nil {
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
					s.Put(keyAddr(k), want)
					continue
				}
				if got, ok := s.Get(keyAddr(k)); ok && !recordsEqual(got.record(), want) {
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
	if _, err := s.Put(keyAddr([]byte("k")), one); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyAddr([]byte("k"))); !ok {
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
	s, err := Open(dir, 8*oneSize) // room for eight records, low water at seven
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 9)
	for i := range keys {
		keys[i] = []byte{'a' + byte(i)}
	}
	for i, k := range keys[:8] {
		if _, err := s.Put(keyAddr(k), one); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.addrPath(keyAddr(k)), mt, mt)
	}

	// The other process beats us to every unlink: the file is already
	// gone by the time our Remove runs.
	defer func() { removeRecord = os.Remove }()
	removeRecord = func(path string) error {
		os.Remove(path)
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}

	// The overflowing Put needs exactly two evictions ("a" and "b", the
	// oldest) to reach the low-water mark.
	if _, err := s.Put(keyAddr(keys[8]), one); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:2] {
		if _, ok := s.Get(keyAddr(k)); ok {
			t.Errorf("%q (oldest) survived eviction", k)
		}
	}
	// The rest must survive: the ENOENTs freed their bytes.
	for _, k := range keys[2:] {
		if _, ok := s.Get(keyAddr(k)); !ok {
			t.Errorf("%q evicted to cover phantom bytes", k)
		}
	}
}

// countScans counts eviction scans until the test ends.
func countScans(t *testing.T) *int {
	n := new(int)
	scanDir = func(dir string) ([]os.DirEntry, error) {
		*n++
		return os.ReadDir(dir)
	}
	t.Cleanup(func() { scanDir = os.ReadDir })
	return n
}

// TestPutScansOnlyNearBudget pins the eviction scan's schedule: the
// first write scans, and under budget a store rescans only after
// writing maxBytes/rescanDivisor bytes. A write that takes the
// estimate past the budget scans and evicts down to the low-water
// mark, and the writes after it scan on the rescan schedule again, not
// each time.
func TestPutScansOnlyNearBudget(t *testing.T) {
	one := sampleRecord(64, 1) // same record per key: exact budget math
	oneSize := int64(len(Encode(one)))
	const perRescan = 4 // records per maxBytes/rescanDivisor
	budget := perRescan * rescanDivisor * oneSize
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	scans := countScans(t)
	put := func(i int) {
		t.Helper()
		if _, err := s.Put(keyAddr([]byte(fmt.Sprintf("k%d", i))), one); err != nil {
			t.Fatal(err)
		}
	}
	const under = 20
	for i := 0; i < under; i++ {
		put(i)
	}
	if want := 1 + (under-1)/perRescan; *scans != want {
		t.Fatalf("%d puts under budget scanned %d times, want %d", under, *scans, want)
	}
	// Fill to the budget; the next put goes over it, scans and evicts.
	full := int(budget / oneSize)
	for i := under; i < full; i++ {
		put(i)
	}
	before := *scans
	put(full)
	if *scans != before+1 {
		t.Fatalf("the put over budget scanned %d times, want 1", *scans-before)
	}
	lowWater := budget - budget/lowWaterDivisor
	if sz := s.SizeBytes(); sz > lowWater {
		t.Fatalf("store holds %d bytes after eviction, want at most the low-water mark %d", sz, lowWater)
	}
	// The puts after it scan once per maxBytes/rescanDivisor bytes.
	before = *scans
	const after = 4 * perRescan
	for i := full + 1; i <= full+after; i++ {
		put(i)
	}
	if got := *scans - before; got != after/perRescan {
		t.Fatalf("%d puts after the eviction scanned %d times, want %d", after, got, after/perRescan)
	}
	if sz := s.SizeBytes(); sz > budget {
		t.Fatalf("store over budget: %d > %d", sz, budget)
	}
}

// TestRescanCountsOtherWriters checks the staleness bound: records
// another process writes are invisible to a store's estimate, but the
// store counts them — and evicts back to budget — within
// maxBytes/rescanDivisor bytes of its own writes.
func TestRescanCountsOtherWriters(t *testing.T) {
	dir := t.TempDir()
	one := sampleRecord(64, 1)
	oneSize := int64(len(Encode(one)))
	const perRescan = 4
	budget := perRescan * rescanDivisor * oneSize
	s1, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 2*budget) // the other process has a larger budget
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put(keyAddr([]byte("first")), one); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < budget/oneSize+10; i++ {
		if _, err := s2.Put(keyAddr([]byte(fmt.Sprintf("other%d", i))), one); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perRescan; i++ {
		if _, err := s1.Put(keyAddr([]byte(fmt.Sprintf("mine%d", i))), one); err != nil {
			t.Fatal(err)
		}
	}
	if sz := s1.SizeBytes(); sz > budget {
		t.Fatalf("store over budget after %d own writes: %d > %d", perRescan, sz, budget)
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
		if err := os.WriteFile(s1.addrPath(keyAddr(k)), blob, 0o644); err != nil {
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
					if _, err := s.Put(keyAddr(k), sampleRecord(64, uint64(n))); err != nil {
						t.Errorf("goroutine %d: Put: %v", g, err)
					}
					continue
				}
				if got, ok := s.Get(keyAddr(k)); ok && !recordsEqual(got.record(), sampleRecord(64, uint64(n))) {
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
