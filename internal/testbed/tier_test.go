package testbed

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/tracestore"
)

// fakeTier is an in-memory TraceTier: the coordinator's store without
// the HTTP in between. It stores encoded blobs so wire-byte accounting
// matches the real tier's.
type fakeTier struct {
	mu        sync.Mutex
	m         map[string][]byte
	fetches   int
	publishes int
}

func (ft *fakeTier) Fetch(key []byte) (*tracestore.Record, int, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.fetches++
	blob, ok := ft.m[tracestore.Addr(key)]
	if !ok {
		return nil, 0, false
	}
	rec, ok := tracestore.Decode(blob)
	if !ok {
		return nil, 0, false
	}
	return rec, len(blob), true
}

func (ft *fakeTier) Publish(key []byte, rec *tracestore.Record) int {
	blob := tracestore.Encode(rec)
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.m == nil {
		ft.m = map[string][]byte{}
	}
	ft.m[tracestore.Addr(key)] = blob
	ft.publishes++
	return len(blob)
}

func compiledWithTier(t testing.TB, p Platform, dir string, tier TraceTier) *CompiledPlatform {
	t.Helper()
	cp := compiledWithStore(t, p, dir)
	cp.SetTraceTier(tier)
	return cp
}

// TestTierResolutionOrder pins the miss path order — memory, local
// store, shared tier, capture — and the write-throughs at each level.
func TestTierResolutionOrder(t *testing.T) {
	p := Bulldozer()
	rc := storeRunConfig(t, p, "tier", 96)
	ref := compiledWithStore(t, p, "")
	want, err := ref.Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A: everything cold. Captures once, publishes to the tier.
	tier := &fakeTier{}
	dirA := t.TempDir()
	a := compiledWithTier(t, p, dirA, tier)
	ma, err := a.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, want) {
		t.Error("tier-attached cold run diverged from reference")
	}
	ts := a.TraceStats()
	if ts.TierMisses != 1 || ts.TierHits != 0 || ts.Captures != 1 {
		t.Fatalf("cold run tier hits/misses/captures = %d/%d/%d, want 0/1/1",
			ts.TierHits, ts.TierMisses, ts.Captures)
	}
	if ts.WireBytes == 0 {
		t.Error("publish moved no wire bytes")
	}
	if tier.publishes != 1 {
		t.Fatalf("tier got %d publishes, want 1", tier.publishes)
	}

	// Worker B: cold local store, warm tier. Served over the wire, no
	// capture, and written through to B's local store.
	dirB := t.TempDir()
	b := compiledWithTier(t, p, dirB, tier)
	mb, err := b.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb, want) {
		t.Error("tier-served run diverged from reference")
	}
	ts = b.TraceStats()
	if ts.TierHits != 1 || ts.Captures != 0 {
		t.Fatalf("tier-warm run tier hits/captures = %d/%d, want 1/0", ts.TierHits, ts.Captures)
	}
	if ts.CaptureNSSaved == 0 {
		t.Error("tier hit reported no capture time saved")
	}
	if b.TraceStore().Len() != 1 {
		t.Error("tier hit not written through to the local store")
	}

	// Worker C shares B's directory with no tier: the write-through
	// means a plain store hit.
	c := compiledWithStore(t, p, dirB)
	if _, err := c.Run(rc); err != nil {
		t.Fatal(err)
	}
	if ts := c.TraceStats(); ts.StoreHits != 1 {
		t.Fatalf("write-through record not served from the store: %+v", ts)
	}

	// Worker D shares A's directory with the tier attached: the local
	// store answers first, so the tier is never consulted.
	d := compiledWithTier(t, p, dirA, tier)
	fetchesBefore := tier.fetches
	if _, err := d.Run(rc); err != nil {
		t.Fatal(err)
	}
	ts = d.TraceStats()
	if ts.StoreHits != 1 || ts.TierHits+ts.TierMisses != 0 || tier.fetches != fetchesBefore {
		t.Fatalf("local store hit still consulted the tier: %+v (fetches %d→%d)",
			ts, fetchesBefore, tier.fetches)
	}
}

// TestBatchUsesTier drives the generation pipeline against a store-less
// platform pair sharing only a tier: the second platform's whole batch
// is served over the wire with zero captures, bit-identical.
func TestBatchUsesTier(t *testing.T) {
	p := Bulldozer()
	rcs := []RunConfig{
		storeRunConfig(t, p, "tgen-a", 64),
		storeRunConfig(t, p, "tgen-b", 80),
		storeRunConfig(t, p, "tgen-a", 64), // duplicate: same trace group
	}
	tier := &fakeTier{}
	cold := compiledWithTier(t, p, "", tier)
	wantMs, wantErrs := cold.MeasureBatch(rcs, 0, 0)
	for i, err := range wantErrs {
		if err != nil {
			t.Fatalf("cold batch slot %d: %v", i, err)
		}
	}
	if ts := cold.TraceStats(); ts.Captures != 2 || ts.TierMisses != 2 {
		t.Fatalf("cold batch captures/tier misses = %d/%d, want 2/2", ts.Captures, ts.TierMisses)
	}

	warm := compiledWithTier(t, p, "", tier)
	gotMs, gotErrs := warm.MeasureBatch(rcs, 0, 0)
	for i, err := range gotErrs {
		if err != nil {
			t.Fatalf("warm batch slot %d: %v", i, err)
		}
	}
	ts := warm.TraceStats()
	if ts.TierHits != 2 || ts.Captures != 0 {
		t.Fatalf("warm batch tier hits/captures = %d/%d, want 2/0", ts.TierHits, ts.Captures)
	}
	for i := range rcs {
		if !reflect.DeepEqual(gotMs[i], wantMs[i]) {
			t.Errorf("warm batch slot %d diverged from cold batch", i)
		}
	}
}

// TestCrossVersionWarmStart replaces a warm store's records with the
// flat v1 files an older binary would have left behind (fabricated as
// the v1 magic plus arbitrary bytes: no v1 writer survives). The store
// no longer reads v1, so each is a miss — in Decode, in Get, and for
// PutRaw — and the directory is a cold start: the trace is recaptured,
// stored as v2, and the measurement is DeepEqual to the original. The
// run after that is warm again.
func TestCrossVersionWarmStart(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	rc := storeRunConfig(t, p, "xver", 96)

	cold := compiledWithStore(t, p, dir)
	want, err := cold.Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	st, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	records, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(records) == 0 {
		t.Fatalf("cold run stored no records (%v)", err)
	}
	v1 := append([]byte("AUDTRC1\n"), bytes.Repeat([]byte{0x5a}, 4096)...)
	for _, path := range records {
		if _, ok := tracestore.Decode(v1); ok {
			t.Fatal("Decode accepted a v1 record")
		}
		if err := st.PutRaw(strings.TrimSuffix(filepath.Base(path), ".trace"), v1); err == nil {
			t.Fatal("PutRaw stored a v1 record")
		}
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	run := func(label string, hits, captures uint64) {
		t.Helper()
		cp := compiledWithStore(t, p, dir)
		got, err := cp.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if ts := cp.TraceStats(); ts.StoreHits != hits || ts.Captures != captures {
			t.Fatalf("%s run store hits/captures = %d/%d, want %d/%d",
				label, ts.StoreHits, ts.Captures, hits, captures)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s measurement differs from the original cold run", label)
		}
	}
	run("v1-store", 0, 1)
	for _, path := range records {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(blob, []byte("AUDTRC2\n")) {
			t.Errorf("%s was not rewritten as v2", filepath.Base(path))
		}
	}
	run("rewarmed", 1, 0)
}
