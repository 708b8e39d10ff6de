// Package tracestore is a persistent, content-addressed store for
// phase-1 chip traces. Each record lives in its own file named by its
// address, a SHA-256 the caller computes, in lowercase hex (ValidAddr),
// serialized in a checksummed compact format (encode.go) and written
// atomically, so concurrent processes can share one store directory:
// writers race benignly (same address ⇒ same bytes; last rename wins)
// and readers only ever see complete files. Records are not fsynced: a power cut may
// tear one, and a torn record fails its checksum.
//
// The store is an optimisation layer, never a source of truth: any
// file that is missing, truncated, torn, version-skewed or
// checksum-corrupt reads as a cache miss, and write failures are
// surfaced but safe to ignore. Total size is byte-bounded; when a
// write pushes the directory over budget, the records with the oldest
// mtimes are evicted down to a low-water mark (Get refreshes mtime,
// making eviction approximately LRU). A store tracks its size from one
// directory scan plus the bytes it writes, so a write under budget
// does not list the directory.
package tracestore

import (
	"encoding/binary"
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

// rescanDivisor sets how stale a store's size estimate may get: after
// writing maxBytes/rescanDivisor bytes since its last directory scan,
// a store scans again even while its estimate is under budget. That
// bounds how late records written by other processes sharing the
// directory are counted.
const rescanDivisor = 16

// lowWaterDivisor sets the eviction's low-water mark: a store found
// over budget evicts down to maxBytes − maxBytes/lowWaterDivisor, so
// the writes that follow fit under budget without a scan each.
const lowWaterDivisor = 8

// recordExt suffixes every record file, whatever its format version:
// a file an older binary wrote (the flat v1 or the DEFLATE v2 format)
// shares the content address of its replacement, reads as a miss, and
// is unlinked on first touch, so a directory left by an older binary
// is a cold start.
const recordExt = ".trace"

// statsWords is the width of a chip-counter block.
const statsWords = 8

// Record is the portable form of one phase-1 trace: every cycle of the
// run, and the chip counters at its end. Energy and Issues are
// per-cycle and equally long — Decode rejects a blob that says
// otherwise. EndStats is flat uint64 words so the store stays decoupled
// from the cpu package's struct layout; callers own the mapping.
type Record struct {
	Energy []float64
	Issues []uint64

	Done        bool
	Unsupported bool

	EndStats   [statsWords]uint64
	EndRetired uint64

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

	// evictMu guards the size estimate and serialises the eviction
	// scan so concurrent Puts don't double-delete; cross-process races
	// just make os.Remove a no-op.
	evictMu   sync.Mutex
	scanned   bool  // estBytes has been set by a scan
	estBytes  int64 // bytes resident at the last scan plus bytes written since
	sinceScan int64 // bytes this store wrote since the last scan
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

func (s *Store) addrPath(addr string) string {
	return filepath.Join(s.dir, addr+recordExt)
}

// Get loads the record stored at addr as a view of
// the bytes it read (Encoded), validated as Decode validates. Every
// failure mode — an invalid address, absent, truncated, corrupt,
// foreign version — returns (nil, false); the caller rebuilds and
// overwrites. A hit refreshes the file's mtime so byte-budget eviction
// approximates LRU.
func (s *Store) Get(addr string) (*Encoded, bool) {
	if !ValidAddr(addr) {
		return nil, false
	}
	var enc *Encoded
	ok := s.load(s.addrPath(addr), func(blob []byte) (ok bool) {
		enc, ok = parseEncoded(blob)
		return ok
	})
	return enc, ok
}

// GetRaw returns the validated encoded blob stored at addr, for
// serving over the wire without a re-encode. Same failure semantics as
// Get: anything unreadable is a miss, corrupt files are unlinked.
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

// Put stores rec at addr, atomically, then enforces
// the byte budget, and returns the view of the bytes it wrote. It
// refuses an invalid address and a record that would not decode
// (Energy and Issues of different lengths). Failures leave the store
// no worse than before; callers treating the store as a cache may
// ignore the error.
func (s *Store) Put(addr string, rec *Record) (*Encoded, error) {
	if !ValidAddr(addr) {
		return nil, fmt.Errorf("tracestore: invalid record address %q", addr)
	}
	if len(rec.Energy) > MaxCycles {
		return nil, fmt.Errorf("tracestore: record of %d cycles exceeds MaxCycles", len(rec.Energy))
	}
	blob := Encode(rec)
	enc, ok := parseEncoded(blob)
	if !ok {
		return nil, fmt.Errorf("tracestore: refusing to store undecodable record")
	}
	if err := s.write(s.addrPath(addr), blob); err != nil {
		return nil, err
	}
	return enc, nil
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

// write puts blob at p through a temp file and a rename, so a reader
// sees the whole record or none, and fsyncs neither the file nor the
// directory: a record torn by a power cut fails its checksum, is
// unlinked by the first Get, and reads as a miss, and the store is a
// cache, so the loss costs one recapture.
func (s *Store) write(p string, blob []byte) error {
	if int64(len(blob)) > s.maxBytes {
		return fmt.Errorf("tracestore: record (%d bytes) exceeds store budget", len(blob))
	}
	if err := fsutil.ReplaceFile(p, blob); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	s.evict(p, int64(len(blob)))
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

// scanDir is the eviction scan's directory listing behind a seam, so
// tests can count scans.
var scanDir = os.ReadDir

// evict accounts for a just-written blob of size wrote and, when the
// store may be over budget, scans the directory; over budget, it
// removes oldest-mtime records down to the low-water mark, sparing the
// just-written file so a Put can never evict itself. The first write
// scans; after that a write scans only when the estimate passes the
// budget or this store has written maxBytes/rescanDivisor bytes since
// its last scan. The estimate never counts another process's writes
// until the next scan, and over-counts a key rewritten in place, which
// only brings the scan forward.
func (s *Store) evict(spare string, wrote int64) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.scanned {
		s.estBytes += wrote
		s.sinceScan += wrote
		if s.estBytes <= s.maxBytes && s.sinceScan < s.maxBytes/rescanDivisor {
			return
		}
	}
	ents, err := scanDir(s.dir)
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
	if total > s.maxBytes {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		for _, f := range files {
			if total <= s.maxBytes-s.maxBytes/lowWaterDivisor {
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
	s.scanned, s.estBytes, s.sinceScan = true, total, 0
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
