// Package corpus is a versioned, file-per-entry database of discovered
// stressmarks — the regression memory the search itself lacks. Every
// AUDIT run's value is the worst-case loop it finds; without a corpus
// that artifact dies with the run, and nothing notices a simulator
// change that silently shifts worst-case droop. Each entry records the
// winning genome and program image (the core.Stressmark encoding), the
// search configuration it was trained under, the platform digest it was
// baselined on (testbed.PlatformDigest), and the expected measurement —
// droop, measurement fingerprint, optional failure voltage — with
// tolerances. The Replay engine re-measures every entry and reports
// pass, drift (same platform, different answer: unexplained, a bug) or
// platform skew (the platform description itself changed: explained,
// re-baseline deliberately) per entry.
//
// Entries are content-addressed — the filename stem is a hash of the
// entry's identity (name, platform, config, genome, program), so the
// same stressmark deposited twice lands on the same file — and
// checksummed, so a corrupt or hand-edited entry is rejected loudly at
// load instead of silently gating CI on garbage. Unlike the trace
// store, the corpus is a source of truth: load failures are errors,
// never cache misses. Writes go through fsutil.WriteFileAtomic.
package corpus

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fsutil"
	"repro/internal/testbed"
	"repro/internal/uarch"
)

// Version is the corpus entry format version. Bump on any change to
// the Entry wire form that old readers would misinterpret.
const Version = 1

// entryExt suffixes every corpus entry file.
const entryExt = ".json"

// Expected is the baselined measurement an entry is replayed against.
type Expected struct {
	// DroopV is the worst droop of the baselining measurement.
	DroopV float64 `json:"droop_v"`
	// DroopTolV is the absolute droop tolerance in volts. 0 demands a
	// bit-exact replay: the full measurement fingerprint must match.
	// Positive tolerance relaxes the check to |droop−expected| ≤ tol
	// (for entries meant to survive tolerated numeric changes, e.g. a
	// reduced-order replay kernel gated on a voltage tolerance).
	DroopTolV float64 `json:"droop_tol_v,omitempty"`
	// MinV and AvgPowerW give reviewers scale context for the entry.
	MinV      float64 `json:"min_v"`
	AvgPowerW float64 `json:"avg_power_w"`
	// Fingerprint is the canonical hash of the full Measurement
	// (corpus.Fingerprint): every deterministic field, exact bits.
	Fingerprint string `json:"fingerprint"`
	// Voltage-at-failure baseline: when FailFloor > 0 the ladder ran
	// down to that floor, FailFound reports whether it failed, and
	// FailVolts is the highest failing supply (meaningful when found).
	FailFloor float64 `json:"fail_floor,omitempty"`
	FailVolts float64 `json:"fail_volts,omitempty"`
	FailFound bool    `json:"fail_found,omitempty"`
}

// Entry is one corpus record: a stressmark plus everything needed to
// re-measure it and check the answer.
type Entry struct {
	Version int `json:"version"`
	// ID is the content address of the entry's identity — everything
	// except Expected, PlatformDigest and Checksum — so re-baselining
	// (redux) rewrites an entry in place instead of forking it.
	ID   string `json:"id"`
	Name string `json:"name"`

	// Platform names the test system ("bulldozer", "phenom" — see
	// testbed.PlatformByName); PlatformDigest pins the exact
	// description the expectations were baselined on.
	Platform       string `json:"platform"`
	PlatformDigest string `json:"platform_digest"`

	// Search / measurement configuration.
	Threads       int                  `json:"threads"`
	LoopCycles    int                  `json:"loop_cycles"`
	Mode          int                  `json:"mode"`
	FPThrottle    int                  `json:"fp_throttle,omitempty"`
	MeasureCycles uint64               `json:"measure_cycles"`
	WarmupCycles  uint64               `json:"warmup_cycles"`
	Dither        []testbed.DitherSpec `json:"dither,omitempty"`

	// Genome is the winning genome; Program the base64-encoded binary
	// object image it builds to (the core.Stressmark encoding).
	Genome  core.Genome `json:"genome"`
	Program string      `json:"program"`

	Expected Expected `json:"expected"`

	// Checksum is the FNV-1a hash (hex) of the entry's canonical JSON
	// with this field empty; verified on load.
	Checksum string `json:"checksum"`
}

// DecodeProgram rebuilds the runnable program from the entry's image.
func (e *Entry) DecodeProgram() (*asm.Program, error) {
	blob, err := base64.StdEncoding.DecodeString(e.Program)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: program image: %w", e.Name, err)
	}
	return asm.Decode(blob)
}

// RunConfig builds the measurement configuration the entry's
// expectations were baselined under.
func (e *Entry) RunConfig(chip uarch.ChipConfig) (testbed.RunConfig, error) {
	prog, err := e.DecodeProgram()
	if err != nil {
		return testbed.RunConfig{}, err
	}
	specs, err := testbed.SpreadPlacement(chip, prog, e.Threads)
	if err != nil {
		return testbed.RunConfig{}, fmt.Errorf("corpus: %s: %w", e.Name, err)
	}
	return testbed.RunConfig{
		Threads:      specs,
		MaxCycles:    e.WarmupCycles + e.MeasureCycles,
		WarmupCycles: e.WarmupCycles,
		FPThrottle:   e.FPThrottle,
		Dither:       e.Dither,
	}, nil
}

// canonical returns the entry's canonical JSON with Checksum cleared.
func (e *Entry) canonical() ([]byte, error) {
	c := *e
	c.Checksum = ""
	return json.Marshal(&c)
}

// identity returns the canonical bytes of everything the content
// address covers: the entry minus Expected, PlatformDigest and
// Checksum. Expectations and the digest change on redux; identity
// never does.
func (e *Entry) identity() ([]byte, error) {
	c := *e
	c.ID = ""
	c.Expected = Expected{}
	c.PlatformDigest = ""
	c.Checksum = ""
	return json.Marshal(&c)
}

// computeID derives the content address: sha256 of the identity bytes,
// truncated to 16 hex characters (64 bits — ample for corpus-sized
// collections, short enough for filenames).
func (e *Entry) computeID() (string, error) {
	ident, err := e.identity()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(ident)
	return hex.EncodeToString(sum[:8]), nil
}

// seal fills ID and Checksum from the entry's current content.
func (e *Entry) seal() error {
	id, err := e.computeID()
	if err != nil {
		return err
	}
	e.ID = id
	body, err := e.canonical()
	if err != nil {
		return err
	}
	e.Checksum = fmt.Sprintf("%016x", fnv1a(body))
	return nil
}

// verify checks version, checksum and content address; any mismatch is
// an error (the corpus is a source of truth, not a cache).
func (e *Entry) verify() error {
	if e.Version != Version {
		return fmt.Errorf("unsupported entry version %d", e.Version)
	}
	body, err := e.canonical()
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("%016x", fnv1a(body)); e.Checksum != want {
		return fmt.Errorf("checksum mismatch (entry corrupt or hand-edited; re-add or redux it)")
	}
	id, err := e.computeID()
	if err != nil {
		return err
	}
	if e.ID != id {
		return fmt.Errorf("content address mismatch: id %s, content hashes to %s", e.ID, id)
	}
	return nil
}

// filename maps an entry to its file name: a sanitized copy of the
// name for humans plus the content address for uniqueness.
func (e *Entry) filename() string {
	return sanitize(e.Name) + "-" + e.ID + entryExt
}

// sanitize reduces a stressmark name to a filesystem-safe slug.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if s == "" {
		return "entry"
	}
	return s
}

// DB is a corpus directory.
type DB struct {
	dir string
}

// Open creates (if needed) and returns the corpus rooted at dir.
func Open(dir string) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &DB{dir: dir}, nil
}

// Dir returns the corpus root directory.
func (db *DB) Dir() string { return db.dir }

// Add seals the entry (ID + checksum) and writes it atomically under
// its content address, returning the path. Re-adding the same identity
// overwrites in place — a redeposit after redux updates expectations
// without forking the entry.
func (db *DB) Add(e *Entry) (string, error) {
	if e.Version == 0 {
		e.Version = Version
	}
	if e.Version != Version {
		return "", fmt.Errorf("corpus: cannot write entry version %d", e.Version)
	}
	if e.Name == "" || e.Platform == "" || e.Program == "" {
		return "", fmt.Errorf("corpus: entry needs a name, a platform and a program image")
	}
	if e.Threads < 1 {
		return "", fmt.Errorf("corpus: entry %q has no threads", e.Name)
	}
	if e.MeasureCycles == 0 {
		return "", fmt.Errorf("corpus: entry %q has no measurement window", e.Name)
	}
	if err := e.seal(); err != nil {
		return "", err
	}
	path := filepath.Join(db.dir, e.filename())
	err := fsutil.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(e)
	})
	if err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	return path, nil
}

// Load reads, verifies and returns every entry, sorted by filename.
// Any unreadable, corrupt or version-skewed entry fails the whole load:
// a regression database that silently drops entries is worse than none.
func (db *DB) Load() ([]*Entry, error) {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var names []string
	for _, de := range ents {
		if !de.IsDir() && filepath.Ext(de.Name()) == entryExt {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	out := make([]*Entry, 0, len(names))
	for _, name := range names {
		path := filepath.Join(db.dir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		var e Entry
		if err := json.Unmarshal(blob, &e); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		if err := e.verify(); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		out = append(out, &e)
	}
	return out, nil
}

// Len reports the number of entry files present (without verifying).
func (db *DB) Len() int {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range ents {
		if !de.IsDir() && filepath.Ext(de.Name()) == entryExt {
			n++
		}
	}
	return n
}

// fnv1a is the 64-bit FNV-1a hash, matching the repo's other content
// checksums.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
