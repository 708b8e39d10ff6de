package corpus

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testbed"
)

// testStressmark builds a small deterministic stressmark without
// running a search: a fixed-seed random genome built through the real
// code generator, which is all harvest and replay care about.
func testStressmark(t *testing.T, name string, threads int) *core.Stressmark {
	t.Helper()
	cg := &core.CodeGen{
		Opcodes:   core.DefaultOpcodeList(),
		Width:     4,
		LoopIters: 1 << 20,
		MemBytes:  4096,
	}
	rng := rand.New(rand.NewSource(11))
	g := cg.NewGenome(rng, 6, 3, 18, 0.2)
	prog, err := cg.Build(name, g)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Stressmark{
		Name:       name,
		Threads:    threads,
		LoopCycles: 36,
		Mode:       core.Resonance,
		Genome:     g,
		Program:    prog,
	}
}

func compile(t *testing.T, p testbed.Platform) *testbed.CompiledPlatform {
	t.Helper()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// harvestEntry baselines the shared test stressmark with a short
// window so the suite stays fast.
func harvestEntry(t *testing.T, cp *testbed.CompiledPlatform, cfg HarvestConfig) *Entry {
	t.Helper()
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = 6000
	}
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 2000
	}
	sm := testStressmark(t, "corpus-test-mark", 2)
	e, err := Harvest(cp, "bulldozer", sm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHarvestAddLoadRoundTrip(t *testing.T) {
	cp := compile(t, testbed.Bulldozer())
	e := harvestEntry(t, cp, HarvestConfig{})

	if e.PlatformDigest != testbed.PlatformDigest(cp.Platform()) {
		t.Error("harvest did not stamp the platform digest")
	}
	if e.Expected.Fingerprint == "" || e.Expected.DroopV <= 0 {
		t.Errorf("harvest baselined nothing: %+v", e.Expected)
	}

	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := db.Add(e)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); !strings.Contains(base, "corpus-test-mark") || !strings.Contains(base, e.ID) {
		t.Errorf("filename %q lacks the name slug or content address", base)
	}

	got, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0], e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got[0], e)
	}
}

// TestAddIsContentAddressed pins the redux contract: identity excludes
// expectations and the platform digest, so re-baselining the same
// stressmark overwrites its file instead of forking a second entry.
func TestAddIsContentAddressed(t *testing.T) {
	cp := compile(t, testbed.Bulldozer())
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	e1 := harvestEntry(t, cp, HarvestConfig{})
	p1, err := db.Add(e1)
	if err != nil {
		t.Fatal(err)
	}
	// Same identity, different baseline (as redux would produce).
	e2 := harvestEntry(t, cp, HarvestConfig{})
	e2.Expected.DroopV += 0.001
	e2.PlatformDigest = "different-digest"
	p2, err := db.Add(e2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("re-baselined entry forked a new file: %s vs %s", p1, p2)
	}
	if db.Len() != 1 {
		t.Errorf("corpus holds %d files, want 1", db.Len())
	}

	// A genuinely different identity must land elsewhere.
	e3 := harvestEntry(t, cp, HarvestConfig{Name: "other-mark"})
	p3, err := db.Add(e3)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct identities collided on one file")
	}
	if db.Len() != 2 {
		t.Errorf("corpus holds %d files, want 2", db.Len())
	}
}

// TestLoadRejectsDamage: the corpus is a source of truth, so any
// corrupt, hand-edited or version-skewed entry must fail the whole
// load loudly — never be skipped.
func TestLoadRejectsDamage(t *testing.T) {
	cp := compile(t, testbed.Bulldozer())

	freshDB := func(t *testing.T) (*DB, string) {
		db, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path, err := db.Add(harvestEntry(t, cp, HarvestConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		return db, path
	}

	t.Run("bit-flip", func(t *testing.T) {
		db, path := freshDB(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one digit inside the baselined droop value.
		s := strings.Replace(string(blob), `"droop_v": 0.`, `"droop_v": 1.`, 1)
		if s == string(blob) {
			t.Fatal("test setup: droop field not found")
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("tampered entry loaded: err=%v", err)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		db, _ := freshDB(t)
		if err := os.WriteFile(filepath.Join(db.Dir(), "junk.json"), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(); err == nil {
			t.Error("garbage entry loaded")
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		db, path := freshDB(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e Entry
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatal(err)
		}
		e.Version = Version + 1
		out, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("future-version entry loaded: err=%v", err)
		}
	})

	t.Run("id-mismatch", func(t *testing.T) {
		db, path := freshDB(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e Entry
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatal(err)
		}
		e.ID = "0123456789abcdef"
		// Re-seal the checksum so only the content address is wrong.
		e.Checksum = sealChecksum(t, &e)
		out, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(); err == nil || !strings.Contains(err.Error(), "address") {
			t.Errorf("address-forged entry loaded: err=%v", err)
		}
	})
}

// sealChecksum recomputes a valid checksum for a (possibly tampered)
// entry so tests can isolate the other verification layers.
func sealChecksum(t *testing.T, e *Entry) string {
	t.Helper()
	c := *e
	c.Checksum = ""
	body, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return fnvHex(body)
}

func fnvHex(b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	out := make([]byte, 0, 16)
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		out = append(out, digits[(h>>(4*uint(i)))&0xf])
	}
	return string(out)
}

func TestAddValidatesEntries(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Entry{
		"no name":     {Platform: "bulldozer", Program: "x", Threads: 1, MeasureCycles: 100},
		"no platform": {Name: "a", Program: "x", Threads: 1, MeasureCycles: 100},
		"no program":  {Name: "a", Platform: "bulldozer", Threads: 1, MeasureCycles: 100},
		"no threads":  {Name: "a", Platform: "bulldozer", Program: "x", MeasureCycles: 100},
		"no window":   {Name: "a", Platform: "bulldozer", Program: "x", Threads: 1},
	}
	for name, e := range cases {
		e := e
		if _, err := db.Add(&e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if db.Len() != 0 {
		t.Errorf("invalid entries left %d files behind", db.Len())
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"A-Res 4T":    "a-res-4t",
		"__weird!!":   "weird",
		"":            "entry",
		"...":         "entry",
		"plain":       "plain",
		"Mixed Case9": "mixed-case9",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
