// Package tracestore is a persistent, content-addressed store for
// phase-1 chip traces. Each record lives in its own file named by the
// SHA-256 of the caller's key bytes, serialized in a checksummed
// compressed format (encode.go) and written atomically, so concurrent
// processes can share one store directory: writers race benignly (same
// key ⇒ same bytes; last rename wins) and readers only ever see
// complete files.
//
// The store is an optimisation layer, never a source of truth: any
// file that is missing, truncated, version-skewed or checksum-corrupt
// reads as a cache miss, and write failures are surfaced but safe to
// ignore. Total size is byte-bounded; when a write pushes the
// directory over budget, the records with the oldest mtimes are
// evicted (Get refreshes mtime, making eviction approximately LRU).
package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fsutil"
)

// DefaultMaxBytes bounds a store opened with maxBytes <= 0.
const DefaultMaxBytes = 256 << 20

// recordExt suffixes every record file, whatever its format version:
// a file an older binary wrote (the flat v1 format) shares the content
// address of its replacement, reads as a miss, and is unlinked on
// first touch, so a directory left by an older binary is a cold start.
const recordExt = ".trace"

// statsWords is the per-block width of the chip-counter triples.
const statsWords = 8

// Record is the portable form of one phase-1 trace. Energy and Issues
// are per-cycle and equally long — Decode rejects a blob that says
// otherwise. The stats blocks are flat uint64 words so the store stays
// decoupled from the cpu package's struct layout; callers own the
// mapping.
type Record struct {
	Energy []float64
	Issues []uint64

	Done        bool
	Unsupported bool
	Periodic    bool

	HeadLen   int
	PeriodLen int

	EndStats [statsWords]uint64
	RefStats [statsWords]uint64
	PerStats [statsWords]uint64

	EndRetired uint64
	RefRetired uint64
	PerRetired uint64

	// CaptureNS is how long phase-1 capture of this trace took, in
	// nanoseconds (zero when unknown). Telemetry, not identity: it
	// feeds the "capture time saved" counter when a store or tier hit
	// skips a recapture, and never participates in any deterministic
	// output.
	CaptureNS uint64
}

// Store is a byte-bounded directory of records. Safe for concurrent
// use by multiple goroutines and, at the filesystem level, multiple
// processes.
type Store struct {
	dir      string
	maxBytes int64

	// evictMu serialises the eviction scan so concurrent Puts don't
	// double-delete; cross-process races just make os.Remove a no-op.
	evictMu sync.Mutex
}

// Open creates (if needed) and returns the store rooted at dir.
// maxBytes <= 0 selects DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Addr is the content address of a key: the hex SHA-256 of its bytes.
// It is the record's filename stem in every store directory and the
// form a key travels in over the distributed trace tier (keys embed
// whole program encodings; the address is a fixed 64 characters).
func Addr(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

// ValidAddr rejects anything that is not a lowercase hex SHA-256 —
// addresses arrive over the network and become file names, so this is
// also the path-traversal guard.
func ValidAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for _, c := range addr {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps key bytes to the record's content address.
func (s *Store) path(key []byte) string {
	return s.addrPath(Addr(key))
}

func (s *Store) addrPath(addr string) string {
	return filepath.Join(s.dir, addr+recordExt)
}

// Get loads the record stored under key. Every failure mode — absent,
// truncated, corrupt, foreign version — returns (nil, false); the
// caller rebuilds and overwrites. A hit refreshes the file's mtime so
// byte-budget eviction approximates LRU.
func (s *Store) Get(key []byte) (*Record, bool) {
	var rec *Record
	ok := s.load(s.path(key), func(blob []byte) (ok bool) {
		rec, ok = Decode(blob)
		return ok
	})
	return rec, ok
}

// GetRaw returns the validated encoded blob stored under addr, for
// serving over the wire without a re-encode. Same
// failure semantics as Get: anything unreadable is a miss, corrupt
// files are unlinked.
func (s *Store) GetRaw(addr string) ([]byte, bool) {
	if !ValidAddr(addr) {
		return nil, false
	}
	var blob []byte
	ok := s.load(s.addrPath(addr), func(b []byte) bool {
		blob = b
		return valid(b)
	})
	return blob, ok
}

// load reads one record file and hands it to accept, refreshing the
// file's mtime if accept takes it and unlinking it if accept refuses
// it or it is longer than any record can be.
func (s *Store) load(p string, accept func(blob []byte) bool) bool {
	blob, err := readRecordFile(p)
	if err != nil {
		return false
	}
	if blob == nil || !accept(blob) {
		// A corrupt record will never read successfully again; drop it
		// so it stops charging the byte budget.
		os.Remove(p)
		return false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // best-effort; eviction order only
	return true
}

// readRecordFile reads a record file whole; a nil blob with a nil
// error means the file is longer than MaxBlobBytes, which no record
// is, and was not read.
func readRecordFile(p string) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() > MaxBlobBytes {
		return nil, nil
	}
	blob := make([]byte, info.Size())
	if _, err := io.ReadFull(f, blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// Put stores rec under key, atomically, then enforces the byte budget.
// Failures leave the store no worse than before; callers treating the
// store as a cache may ignore the error.
func (s *Store) Put(key []byte, rec *Record) error {
	if len(rec.Energy) > MaxCycles {
		return fmt.Errorf("tracestore: record of %d cycles exceeds MaxCycles", len(rec.Energy))
	}
	return s.write(s.path(key), Encode(rec))
}

// PutRaw stores an already-encoded blob (e.g. one received over the
// trace tier) under addr after validating it decodes — a store must
// never accept bytes it would later serve as corrupt.
func (s *Store) PutRaw(addr string, blob []byte) error {
	if !ValidAddr(addr) {
		return fmt.Errorf("tracestore: invalid record address %q", addr)
	}
	if !valid(blob) {
		return fmt.Errorf("tracestore: refusing to store undecodable record")
	}
	return s.write(s.addrPath(addr), blob)
}

func (s *Store) write(p string, blob []byte) error {
	if int64(len(blob)) > s.maxBytes {
		return fmt.Errorf("tracestore: record (%d bytes) exceeds store budget", len(blob))
	}
	err := fsutil.WriteFileAtomic(p, func(w io.Writer) error {
		_, werr := w.Write(blob)
		return werr
	})
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	s.evict(p)
	return nil
}

// Len reports the number of resident records (testing aid).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == recordExt {
			n++
		}
	}
	return n
}

// SizeBytes reports the store's current on-disk footprint (record
// files only).
func (s *Store) SizeBytes() int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != recordExt {
			continue
		}
		if info, ierr := e.Info(); ierr == nil {
			total += info.Size()
		}
	}
	return total
}

// removeRecord is os.Remove behind a seam, so tests can interpose the
// moment another process unlinks a record mid-eviction.
var removeRecord = os.Remove

// evict removes oldest-mtime records until the store fits its budget,
// sparing the just-written file so a Put can never evict itself.
func (s *Store) evict(spare string) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type rf struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []rf
	var total int64
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != recordExt {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		files = append(files, rf{filepath.Join(s.dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if f.path == spare {
			continue
		}
		// Another process sharing the directory may have removed the
		// file since ReadDir: its bytes are gone either way, so ENOENT
		// counts as space freed — treating it as a failure would make
		// the scan evict younger records to cover phantom bytes.
		if err := removeRecord(f.path); err == nil || os.IsNotExist(err) {
			total -= f.size
		}
	}
}

func appendU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

// fnv1a is the 64-bit FNV-1a hash, matching the repo's other
// fingerprint hashes; cheap and adequate for corruption detection.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
