package testbed

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tracestore"
)

// corruptAllRecords overwrites every record file in dir with garbage.
func corruptAllRecords(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".trace" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("not a trace record"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeRunConfig is a small replay-eligible run: 4 threads of a
// dec/jnz-closed loop (full trace) at a depressed supply.
func storeRunConfig(t testing.TB, p Platform, name string, period int) RunConfig {
	t.Helper()
	threads, err := SpreadPlacement(p.Chip, mulLoop(name, period), 4)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Threads:      threads,
		MaxCycles:    3000,
		WarmupCycles: 1000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
}

func compiledWithStore(t testing.TB, p Platform, dir string) *CompiledPlatform {
	t.Helper()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		st, err := tracestore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp.SetTraceStore(st)
	}
	return cp
}

// TestStoreWarmSkipsCapture is the store's core contract: a second
// platform (standing in for a second process) sharing the store
// directory serves phase 1 from disk — a store hit, no capture time —
// and measures bit-identically.
func TestStoreWarmSkipsCapture(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	rc := storeRunConfig(t, p, "warm", 96)

	cold := compiledWithStore(t, p, dir)
	want, err := cold.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	ts := cold.TraceStats()
	if ts.StoreMisses != 1 || ts.StoreHits != 0 {
		t.Fatalf("cold run: store hits/misses = %d/%d, want 0/1", ts.StoreHits, ts.StoreMisses)
	}
	if ts.CaptureNS == 0 {
		t.Error("cold run recorded no capture time")
	}
	if cold.TraceStore().Len() != 1 {
		t.Fatalf("store holds %d records after cold run, want 1", cold.TraceStore().Len())
	}

	warm := compiledWithStore(t, p, dir)
	got, err := warm.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	ts = warm.TraceStats()
	if ts.StoreHits != 1 || ts.StoreMisses != 0 {
		t.Fatalf("warm run: store hits/misses = %d/%d, want 1/0", ts.StoreHits, ts.StoreMisses)
	}
	if ts.CaptureNS != 0 {
		t.Errorf("warm run spent %d ns capturing; phase 1 should have been skipped", ts.CaptureNS)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm measurement differs from cold:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreBitIdentity holds the measurement invariant across every
// store state — disabled, cold, warm — for both a full-trace (dec/jnz)
// and a periodic (jmp-closed) program, with the store-free platform as
// the reference.
func TestStoreBitIdentity(t *testing.T) {
	p := Bulldozer()
	progs := map[string]RunConfig{}
	progs["full-trace"] = storeRunConfig(t, p, "bits", 96)
	{
		threads, err := SpreadPlacement(p.Chip, jmpLoop("bits-periodic", 64), 4)
		if err != nil {
			t.Fatal(err)
		}
		// mulpd operands take a few hundred iterations to saturate, and
		// Brent verification needs head + 3 periods: give it room.
		progs["periodic"] = RunConfig{
			Threads: threads, MaxCycles: 60000, WarmupCycles: 2000,
			SupplyVolts: p.Nominal() - 0.08,
		}
	}
	for name, rc := range progs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			noStore := compiledWithStore(t, p, "")
			want, err := noStore.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			coldPlat := compiledWithStore(t, p, dir)
			cold, err := coldPlat.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			warmPlat := compiledWithStore(t, p, dir)
			warm, err := warmPlat.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if wts := warmPlat.TraceStats(); wts.StoreHits != 1 {
				t.Fatalf("warm platform store hits = %d, want 1", wts.StoreHits)
			}
			if name == "periodic" {
				if sts := warmPlat.TraceStats(); sts.Periodic != 1 {
					t.Errorf("loaded trace lost its periodic decomposition: %+v", sts)
				}
			}
			if !reflect.DeepEqual(cold, want) {
				t.Errorf("cold-store measurement differs from store-free reference")
			}
			if !reflect.DeepEqual(warm, want) {
				t.Errorf("warm-store measurement differs from store-free reference")
			}
		})
	}
}

// TestStorePlatformDigestIsolation shares one directory between two
// platforms that differ only in a power-model coefficient — identical
// trace keys, different trace content. The digest salt must keep them
// from serving each other's records.
func TestStorePlatformDigestIsolation(t *testing.T) {
	dir := t.TempDir()
	pa := Bulldozer()
	pb := Bulldozer()
	pb.Power.FrontEndPJPerOp *= 2

	rcA := storeRunConfig(t, pa, "iso", 96)
	cpA := compiledWithStore(t, pa, dir)
	ma, err := cpA.Run(rcA)
	if err != nil {
		t.Fatal(err)
	}

	rcB := storeRunConfig(t, pb, "iso", 96)
	cpB := compiledWithStore(t, pb, dir)
	mb, err := cpB.Run(rcB)
	if err != nil {
		t.Fatal(err)
	}
	ts := cpB.TraceStats()
	if ts.StoreHits != 0 || ts.StoreMisses != 1 {
		t.Fatalf("altered platform store hits/misses = %d/%d, want 0/1 (digest collision?)",
			ts.StoreHits, ts.StoreMisses)
	}
	if ma.EnergyPJ == mb.EnergyPJ {
		t.Error("power-model change did not move energy; isolation test is vacuous")
	}
	if cpA.TraceStore().Len() != 2 {
		t.Errorf("store holds %d records, want 2 (one per platform digest)", cpA.TraceStore().Len())
	}
}

// TestStoreConcurrentPlatforms races two CompiledPlatforms over one
// store directory — concurrent readers and writers of overlapping keys
// — and checks every measurement against a store-free reference. Run
// under -race: this is the data-race gate for the store integration.
func TestStoreConcurrentPlatforms(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	const nProgs = 4

	ref := compiledWithStore(t, p, "")
	rcs := make([]RunConfig, nProgs)
	want := make([]*Measurement, nProgs)
	for i := range rcs {
		rcs[i] = storeRunConfig(t, p, fmt.Sprintf("conc-%d", i), 64+8*i)
		m, err := ref.Run(rcs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	plats := []*CompiledPlatform{
		compiledWithStore(t, p, dir),
		compiledWithStore(t, p, dir),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cp := plats[g%2]
			for i := 0; i < 6; i++ {
				k := (g + i) % nProgs
				m, err := cp.Run(rcs[k])
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(m, want[k]) {
					t.Errorf("goroutine %d: measurement %d diverged from reference", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits := plats[0].TraceStats().StoreHits + plats[1].TraceStats().StoreHits; hits == 0 {
		t.Log("note: no store hits occurred (all traces were memory-resident); contract still held")
	}
}

// TestStoreCorruptRecordRecaptured plants garbage at a record's
// content address; the platform must fall back to capture and
// overwrite it with a good record.
func TestStoreCorruptRecordRecaptured(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	rc := storeRunConfig(t, p, "corrupt", 96)

	cold := compiledWithStore(t, p, dir)
	want, err := cold.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every record in the store.
	st := cold.TraceStore()
	if err := corruptAllRecords(dir); err != nil {
		t.Fatal(err)
	}
	warm := compiledWithStore(t, p, dir)
	got, err := warm.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	ts := warm.TraceStats()
	if ts.StoreHits != 0 || ts.StoreMisses != 1 {
		t.Fatalf("corrupt record: store hits/misses = %d/%d, want 0/1", ts.StoreHits, ts.StoreMisses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recaptured measurement differs from original")
	}
	// The recapture rewrote the record: a third platform now hits.
	third := compiledWithStore(t, p, dir)
	if _, err := third.Run(rc); err != nil {
		t.Fatal(err)
	}
	if ts := third.TraceStats(); ts.StoreHits != 1 {
		t.Errorf("rewritten record not served: %+v (store len %d)", ts, st.Len())
	}
}

// TestStoreMismatchedRecordRecaptured rewrites the stored record as a
// well-formed, checksummed blob whose 3000 energy values carry only 10
// issue words — the shape one bad /v1/trace upload would serve to every
// worker. The store must read it as a miss, so the replay recaptures
// instead of indexing past the issues.
func TestStoreMismatchedRecordRecaptured(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	rc := storeRunConfig(t, p, "mismatched", 96)
	want, err := compiledWithStore(t, p, dir).Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store holds %d entries (err %v), want 1 record", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := tracestore.Decode(blob)
	if !ok || len(rec.Issues) <= 10 {
		t.Fatalf("stored record unusable for the test (ok %v, %d issues)", ok, len(rec.Issues))
	}
	rec.Issues = rec.Issues[:10]
	if err := os.WriteFile(path, tracestore.Encode(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := compiledWithStore(t, p, dir)
	got, err := warm.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if ts := warm.TraceStats(); ts.StoreHits != 0 || ts.Captures != 1 {
		t.Errorf("mismatched record: store hits %d, captures %d, want 0 and 1", ts.StoreHits, ts.Captures)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recaptured measurement differs from original")
	}
}

// TestBatchUsesStore drives the generation-batched pipeline over a
// warm store: stage 1 must load its traces from disk instead of
// capturing.
func TestBatchUsesStore(t *testing.T) {
	p := Bulldozer()
	dir := t.TempDir()
	rcs := []RunConfig{
		storeRunConfig(t, p, "gen-a", 64),
		storeRunConfig(t, p, "gen-b", 80),
		storeRunConfig(t, p, "gen-a", 64), // duplicate: same trace group
	}

	cold := compiledWithStore(t, p, dir)
	wantMs, wantErrs := cold.MeasureBatch(rcs, 0, 0)
	for i, err := range wantErrs {
		if err != nil {
			t.Fatalf("cold batch slot %d: %v", i, err)
		}
	}
	if ts := cold.TraceStats(); ts.StoreMisses != 2 {
		t.Fatalf("cold batch store misses = %d, want 2 (distinct traces)", ts.StoreMisses)
	}

	warm := compiledWithStore(t, p, dir)
	gotMs, gotErrs := warm.MeasureBatch(rcs, 0, 0)
	for i, err := range gotErrs {
		if err != nil {
			t.Fatalf("warm batch slot %d: %v", i, err)
		}
	}
	ts := warm.TraceStats()
	if ts.StoreHits != 2 || ts.StoreMisses != 0 {
		t.Fatalf("warm batch store hits/misses = %d/%d, want 2/0", ts.StoreHits, ts.StoreMisses)
	}
	if ts.CaptureNS != 0 {
		t.Errorf("warm batch spent %d ns capturing", ts.CaptureNS)
	}
	for i := range rcs {
		if !reflect.DeepEqual(gotMs[i], wantMs[i]) {
			t.Errorf("warm batch slot %d diverged from cold batch", i)
		}
	}
}
