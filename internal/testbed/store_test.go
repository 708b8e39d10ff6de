package testbed

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/asm"
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
// store state — disabled, cold, warm — for both a dec/jnz-closed and a
// jmp-closed (periodic) program, with the store-free platform as the
// reference.
func TestStoreBitIdentity(t *testing.T) {
	p := Bulldozer()
	progs := map[string]RunConfig{}
	progs["full-trace"] = storeRunConfig(t, p, "bits", 96)
	{
		threads, err := SpreadPlacement(p.Chip, jmpLoop("bits-periodic", 64), 4)
		if err != nil {
			t.Fatal(err)
		}
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
// runs, different trace content. The capture digest each address starts
// from must keep them from serving each other's records.
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

// periodicRecordHex is the store record an encoder that still wrote
// periodic records left for periodicRecordConfig: flag bit 2, a
// 449-cycle head and one 476-cycle period instead of the whole run.
// periodicRecordAddr is its file name, the config's trace address on
// Bulldozer.
const (
	periodicRecordAddr = "e749b82b0e4344f859b0d5458cff358147fa8bd0e6d89b4859fbc37a669de17f"
	periodicRecordHex  = "415544545243320aec54fb4f5367036e4fcfb1c00bb507a4050b58229f1ff3d2" +
		"c22046145c29529c281445c6a5eb0ade98235d51cc5825ee70296244c7264e8c" +
		"68601bc986caca9479b49df4b47678e9b8785d44b783d30db5d453d46122734b" +
		"e16db26cff42df5fdaf7e4c99327cfe54529ce1dcea3476a163c0d88f70fdbfb" +
		"a9795343e251ee51aeac6b0ee1b9dfc95e1bf1e6ad0fc277a4d44fe87152c473" +
		"f772c2894c8b9e9633d19548d52601a3c14970ad22a29f8b6321d59f5b8634bc" +
		"f22da66f750a5a1ac3907eb28d40bbf454644175a1ddeaba448988efcf509f89" +
		"3b75eb5a5e73ccfa2db056d06242502dc27460336bf7c9b669963291953cb35a" +
		"ed6cc549f0438c50e0570e8e1906e4bfb7af7367649ed728686932bfa725e319" +
		"771ee71bf62da23ffd4ad7ad6a11d1bb2b8d53bc9cbfa134fe74d8ed20bbe0ff" +
		"a624548bfcf95ee0e2ba014b9e789152f0155af54efd582e4e824bc912247437" +
		"9654d34a65691e776fbfd2432b68295b97b7326905a43d6c77b9062911d15b68" +
		"0b6a5f657cbb526216aa79e5c210d37a548b4c8606f619f4967de2fcc185a52f" +
		"af8b03c6467112f43985e7fc6d20d3d061bd3a32cfbdf9f1299682963ee50f87" +
		"a5aee68e73eeb25d441ba435635481b82aaeefc586c9f85721c3d084075bd88d" +
		"753b64e1748011cb474ee4e739ef43b5420a5c30dc93bba3e70f95ec3cd5a4a0" +
		"a58b067bc9f48ddc2c248d1d4d64db4997d5a336d636bb5da33c3baa7a26d187" +
		"76cf8a363d41b5c8d304f46a6d87e52371ca60d4e86c3477ad53899380c94d88" +
		"0a6dc7b6d59c4d55b53d1a2a5fd6a384deca9ab1ef9009f64ea222bdb3cb520d" +
		"23dbcf37af54c748834328c17313f0d052a0a04e26aba063e282c3586550edf3" +
		"1371b7c3df081caa2fb52516477d02693d4d381ff1a13cd91025270ec0c8a64c" +
		"30f30b2e2ebc2fd836b35c78d294e68dacde021a800ac6e5513a7b20a8b69eb2" +
		"69ee3d345683336d0a5a3ac7a81e4db9009526a437491c6c11d1eb482b2b5634" +
		"bd15bba039f4f2cc3d909211621b6b93600b406e61a7d30f27c1c1d619af473c" +
		"e7e977a7a41d6b8fcc81be7a946636b38fb18eb3d613f3ed066d7faa88309f91" +
		"bf1ad9d134ed6bc81e68c0e417815beb26605c911139cb9f987112381c21abfc" +
		"0e818386cbd607c5196ee5826e998296524a47e59a0af42692c19e4b64d95f68" +
		"6f786819f9cde2234a7b43c985f892e06cd8823f7e99915ff3a5ac4593ca885f" +
		"0055d17ee7429c0403e8a2cd82ffa1748d2e7589f89ab705378db6d29cd52000" +
		"fb1ab94ee478690f58e9e843ba1fc336372628f023c26493da6bc27118578059" +
		"ed1a0b8471097e859de5e3302e8fdaac46ac04b9c1defaf16139abeb674f5cbb" +
		"a89d6d56255cd87681d614876a91bfe283baeb3a646b3431bae0255c15a4b5a8" +
		"423ff55f066913bbdfdd6b142b68499e2eec6246eebfbdf5a8ad82e50a3e0987" +
		"3b7e17bcaccb836ad14968c278637ca70083ef41112e179d6714b434216e4dec" +
		"52d5f4c2aadbd2d325764f13b0b4f89142fe74137827e170a73aeb2f2bd24875" +
		"4292bb023661b82abcc46f042e2c197fbfc86884535881c285cd806aa7de8303" +
		"0cf4f621a41dcf06c4de91bee6b91773eec7fa27aace8d5542130085b5d6f4a7" +
		"6e114fe0fae1d37130b295652c92e881714d293dc1fcb4a42c62314f72c48f6f" +
		"d2a35ac4fd1273d5de814a39890588d3829360d2424c1defc3fd8f1b010f3afd" +
		"5343a03e8c0fe3c3f8303e8c0fe3c3f8303ecc7f317f070000ffff966d626e69" +
		"e7f247"
)

// periodicRecordConfig is the jmp-closed run periodicRecordHex holds.
func periodicRecordConfig(t *testing.T, p Platform) RunConfig {
	t.Helper()
	threads, err := SpreadPlacement(p.Chip, jmpLoop("periodic-record", 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{Threads: threads, MaxCycles: 20000, WarmupCycles: 2000, SupplyVolts: p.Nominal() - 0.08}
}

// TestStorePeriodicRecordRecaptured puts a periodic record, which holds
// one period instead of the whole run, where a store directory keeps
// it. The store must read it as a miss, so the run recaptures, replaces
// the record with the whole trace, and measures what Platform.Run
// measures.
func TestStorePeriodicRecordRecaptured(t *testing.T) {
	p := Bulldozer()
	rc := periodicRecordConfig(t, p)
	dir := t.TempDir()
	warm := compiledWithStore(t, p, dir)
	a, ok := warm.traceAddr(rc)
	if !ok {
		t.Fatal("no trace address")
	}
	if addr := a.String(); addr != periodicRecordAddr {
		t.Fatalf("record address %s, want %s: the trace address moved", addr, periodicRecordAddr)
	}
	blob, err := hex.DecodeString(periodicRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, periodicRecordAddr+".trace")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := warm.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if ts := warm.TraceStats(); ts.StoreHits != 0 || ts.StoreMisses != 1 || ts.Captures != 1 {
		t.Errorf("periodic record: store hits %d, misses %d, captures %d, want 0, 1 and 1",
			ts.StoreHits, ts.StoreMisses, ts.Captures)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := tracestore.Decode(disk); !ok || len(rec.Energy) != int(rc.MaxCycles) {
		t.Errorf("record not replaced by the whole trace (decodes %v)", ok)
	}
	want, err := p.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recaptured measurement differs from Platform.Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceAddrPinned: the address of every shape of run a trace
// covers — one program on every thread, a distinct program per thread,
// a program that recurs after another, thread bounds and start skew, a
// dither plan, an FP throttle — is the store address an older binary
// gave it (the SHA-256 of the capture digest and then the trace key it
// built in full), so store directories and coordinator stores it filled
// still hit. A program that does not encode gets no address.
func TestTraceAddrPinned(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	spread := func(progs ...*asm.Program) []ThreadSpec {
		threads, err := SpreadPlacement(p.Chip, progs[0], len(progs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range threads {
			threads[i].Program = progs[i]
		}
		return threads
	}
	run := func(threads []ThreadSpec) RunConfig {
		return RunConfig{Threads: threads, MaxCycles: 23000, WarmupCycles: 3000, SupplyVolts: p.Nominal()}
	}
	s := searchShapeProgram()
	a, b := mulLoop("pin-a", 16), jmpLoop("pin-b", 24)
	bounded := spread(s, s, s, s)
	for i := range bounded {
		bounded[i].MaxInstrs = uint64(4000 + 1000*i)
		bounded[i].StartSkew = uint64(7 * i)
	}
	dither := run(spread(s, s, s, s))
	dither.Dither = []DitherSpec{{Core: 0, PeriodCycles: 500, PadCycles: 3}, {Core: 5, PeriodCycles: 700, PadCycles: 1}}
	throttled := run(spread(s, s, s, s))
	throttled.FPThrottle = 2
	bad := a.Clone()
	bad.Labels["past-the-end"] = len(bad.Code) + 1
	for _, tc := range []struct {
		name string
		rc   RunConfig
		want string
	}{
		{"search candidate", run(spread(s, s, s, s)), "694db65dca70b61958f63b5da13f848cfeabaae14c2fb878e02d86ef54a6d36e"},
		{"hetero candidate", run(spread(s, a, b, alignedSearchShapeProgram())), "c1e932542fa9d22c57c63b570e34e9904b5c445fd416f9f137834a0954a58c08"},
		{"A, B, A", run(spread(a, b, a)), "d8794c5023fc23f7b5a15f3c533b976d0b8520beeb9d979bfb1e0d8819271d6d"},
		{"bounds and skew", run(bounded), "a757824889419aee92c0725f162d595d8ad88ec5d9b46f0839736cf984fce457"},
		{"dither plan", dither, "e3be77d41c3af3ea65416995dbac0da389380581d6f40652309b168b6a85e242"},
		{"FP throttle", throttled, "3c52660b6b4824e8ae61a62f12eb6ecb9e2a08d13c116261d2fbe033a27c18e2"},
		{"unencodable program", run(spread(s, bad)), ""},
	} {
		got := ""
		if a, ok := cp.traceAddr(tc.rc); ok {
			got = a.String()
		}
		if got != tc.want {
			t.Errorf("%s: address %q, want %q", tc.name, got, tc.want)
		}
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

// storeSlate is a generation whose traces differ in length, so pooled
// arrays pass between shorter and longer traces: dec/jnz loops of
// 2,000 to 16,000 cycles, one trace replayed at two supplies (two lanes
// decoding one trace at once), and a waveform and a trigger consumer,
// which no finished-measurement memo serves.
func storeSlate(t *testing.T, p Platform) []RunConfig {
	t.Helper()
	base := resonancePeriodCycles(p)
	place := func(name string, period int) []ThreadSpec {
		threads, err := SpreadPlacement(p.Chip, mulLoop(name, period), 4)
		if err != nil {
			t.Fatal(err)
		}
		return threads
	}
	var rcs []RunConfig
	for i, cycles := range []uint64{2000, 16000, 5000, 11000, 3000, 8000} {
		rcs = append(rcs, RunConfig{
			Threads:      place(fmt.Sprintf("rest%d", i), base+3*i),
			MaxCycles:    cycles,
			WarmupCycles: 500,
			SupplyVolts:  p.Nominal() - 0.06,
		})
	}
	shared := place("rest-shared", base/2)
	return append(rcs,
		RunConfig{Threads: shared, MaxCycles: 7000, WarmupCycles: 500},
		RunConfig{Threads: shared, MaxCycles: 7000, WarmupCycles: 500, SupplyVolts: p.Nominal() - 0.1},
		RunConfig{Threads: place("rest-wave", base), MaxCycles: 6000, WarmupCycles: 1000, RecordWaveform: true},
		RunConfig{Threads: place("rest-trig", base+1), MaxCycles: 9000, WarmupCycles: 1000, TriggerThreshold: p.Nominal() - 0.02},
	)
}

// restingForms counts the cached traces of cp that rest as record
// bytes and those that keep their arrays.
func restingForms(cp *CompiledPlatform) (enc, arrays int) {
	cp.traces.mu.Lock()
	defer cp.traces.mu.Unlock()
	for _, tr := range cp.traces.m {
		switch {
		case tr.enc != nil && tr.energy == nil && tr.issues == nil:
			enc++
		case tr.enc == nil:
			arrays++
		}
	}
	return enc, arrays
}

// TestStoreBackedBatchMatchesPlatformRun runs one slate on a
// store-backed platform three times — cold (every trace captured and
// written through), warm (the trace cache cleared, so every trace is a
// store hit) and warm again (the memo cleared, so the resident traces
// replay from the cache) — at lane widths 1, 2, 4 and 8 and 1 and 4
// workers. Every trace the store holds rests as its bytes and every
// replay decodes them into pooled arrays, and every slot must equal
// Platform.Run. Run under -race in CI.
func TestStoreBackedBatchMatchesPlatformRun(t *testing.T) {
	p := Bulldozer()
	rcs := storeSlate(t, p)
	want := make([]*Measurement, len(rcs))
	for i, rc := range rcs {
		m, err := p.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	const traces = 9 // the shared trace serves two slots
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			cp := compiledWithStore(t, p, t.TempDir())
			for _, pass := range []string{"cold", "warm", "warm again"} {
				tag := fmt.Sprintf("lanes=%d workers=%d %s", lanes, workers, pass)
				switch pass {
				case "warm":
					cp.ClearTraceCache()
				case "warm again":
					cp.traces.mu.Lock()
					cp.traces.results, cp.traces.resultFifo = nil, nil
					cp.traces.mu.Unlock()
				}
				before := cp.TraceStats()
				ms, errs := cp.MeasureBatch(rcs, lanes, workers)
				for i := range rcs {
					if errs[i] != nil {
						t.Fatalf("%s slot %d: %v", tag, i, errs[i])
					}
					if !reflect.DeepEqual(ms[i], want[i]) {
						t.Fatalf("%s slot %d differs from Platform.Run:\n got %+v\nwant %+v", tag, i, ms[i], want[i])
					}
				}
				ts := cp.TraceStats()
				hits, captures := ts.StoreHits-before.StoreHits, ts.Captures-before.Captures
				switch {
				case pass == "cold" && captures != traces,
					pass == "warm" && (hits != traces || captures != 0),
					pass == "warm again" && (hits != 0 || captures != 0):
					t.Fatalf("%s: %d store hits and %d captures", tag, hits, captures)
				}
				if enc, arrays := restingForms(cp); enc != traces || arrays != 0 {
					t.Errorf("%s: %d traces as bytes, %d as arrays, want %d and 0", tag, enc, arrays, traces)
				}
				resident := 0
				cp.traces.mu.Lock()
				for _, tr := range cp.traces.m {
					resident += tr.sizeBytes()
				}
				cp.traces.mu.Unlock()
				if ts.Bytes != resident {
					t.Errorf("%s: cache counts %d bytes, its traces hold %d", tag, ts.Bytes, resident)
				}
			}
		}
	}
}

// TestStoreHitRunAllocs pins what a store hit costs to replay: once a
// first hit has filled the pools, a Run of a 23,000-cycle search
// candidate whose trace the store holds allocates the record's bytes
// and the pass's small state, under 4 bytes a cycle, not the 16 a
// cycle of two fresh trace arrays.
func TestStoreHitRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under the race detector")
	}
	p := Bulldozer()
	threads, err := SpreadPlacement(p.Chip, searchShapeProgram(), 4)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 23000
	rc := RunConfig{Threads: threads, MaxCycles: cycles, WarmupCycles: 3000, SupplyVolts: p.Nominal()}
	cp := compiledWithStore(t, p, t.TempDir())
	run := func() {
		cp.ClearTraceCache()
		if _, err := cp.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	run() // capture and write through
	run() // the warm-up store hit
	// A collection empties the pools; keep it out of the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if ts := cp.TraceStats(); ts.StoreHits != 1+runs || ts.Captures != 1 {
		t.Fatalf("%d store hits and %d captures, want %d and 1", ts.StoreHits, ts.Captures, 1+runs)
	}
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / runs / cycles
	t.Logf("a store hit's Run allocates %.2f bytes a cycle", perCycle)
	if perCycle >= 4 {
		t.Errorf("a store hit's Run allocates %.2f bytes a cycle, want under 4", perCycle)
	}
}

// TestStoreTornRecordRecaptured: trace records are written without an
// fsync, so a power cut can leave one truncated, empty or zeroed on
// disk. Each such record must read as a miss, be recaptured with the
// measurement Platform.Run gives, and be rewritten whole, so a third
// platform hits it.
func TestStoreTornRecordRecaptured(t *testing.T) {
	p := Bulldozer()
	rc := storeRunConfig(t, p, "torn", 96)
	want, err := p.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	for name, tear := range map[string]func([]byte) []byte{
		"empty":     func([]byte) []byte { return nil },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"zeroed":    func(b []byte) []byte { return make([]byte, len(b)) },
		"zero tail": func(b []byte) []byte { clear(b[len(b)/2:]); return b },
	} {
		dir := t.TempDir()
		if _, err := compiledWithStore(t, p, dir).Run(rc); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("%s: store holds %d entries (err %v), want 1 record", name, len(ents), err)
		}
		path := filepath.Join(dir, ents[0].Name())
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tear(append([]byte(nil), whole...)), 0o644); err != nil {
			t.Fatal(err)
		}
		warm := compiledWithStore(t, p, dir)
		got, err := warm.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if ts := warm.TraceStats(); ts.StoreHits != 0 || ts.StoreMisses != 1 || ts.Captures != 1 {
			t.Errorf("%s: store hits %d, misses %d, captures %d, want 0, 1 and 1",
				name, ts.StoreHits, ts.StoreMisses, ts.Captures)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recaptured measurement differs from Platform.Run", name)
		}
		third := compiledWithStore(t, p, dir)
		if _, err := third.Run(rc); err != nil {
			t.Fatal(err)
		}
		if ts := third.TraceStats(); ts.StoreHits != 1 || ts.Captures != 0 {
			t.Errorf("%s: rewritten record not served: %d store hits, %d captures", name, ts.StoreHits, ts.Captures)
		}
		// The record's bytes differ in the capture time alone.
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, aok := tracestore.Decode(disk)
		b, bok := tracestore.Decode(whole)
		if !aok || !bok {
			t.Fatalf("%s: a record does not decode (rewritten %v, original %v)", name, aok, bok)
		}
		a.CaptureNS, b.CaptureNS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the recapture did not rewrite the record whole", name)
		}
	}
}

// TestEncodedLaneWindow: a lane over a trace that rests as the store's
// bytes holds a window of the record's lag plus one chunk, never the
// whole trace, and the cycles it streams through it, in full chunks and
// in the shorter ones a pass cuts when another lane ends, are the
// stored record's.
func TestEncodedLaneWindow(t *testing.T) {
	p := Bulldozer()
	threads, err := SpreadPlacement(p.Chip, searchShapeProgram(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 23000, WarmupCycles: 3000, SupplyVolts: p.Nominal()}
	cp := compiledWithStore(t, p, t.TempDir())
	if _, err := cp.Run(rc); err != nil {
		t.Fatal(err)
	}
	a, ok := cp.traceAddr(rc)
	if !ok {
		t.Fatal("no trace address")
	}
	tr := cp.traces.get(a)
	if tr == nil || tr.enc == nil {
		t.Fatal("the written-through trace does not rest as the store's bytes")
	}
	blob, ok := cp.TraceStore().GetRaw(a.String())
	if !ok {
		t.Fatal("store miss")
	}
	want, ok := tracestore.Decode(blob)
	if !ok {
		t.Fatal("stored record does not decode")
	}
	lag := tr.enc.Lag()
	ln, err := cp.newLane(0, tr, rc, a)
	if err != nil {
		t.Fatal(err)
	}
	cp.openLane(ln)
	if len(ln.win.energy) != lag+replayChunk || len(ln.win.issues) != lag+replayChunk ||
		cap(ln.win.energy) > tracestore.MaxLag+replayChunk || cap(ln.win.issues) > tracestore.MaxLag+replayChunk {
		t.Fatalf("a lane over a trace of lag %d holds a window of %d/%d cycles (capacity %d/%d), want %d",
			lag, len(ln.win.energy), len(ln.win.issues), cap(ln.win.energy), cap(ln.win.issues), lag+replayChunk)
	}
	for i := 0; ln.cyc < ln.n; i++ {
		n := min(uint64(replayChunk), ln.n-ln.cyc)
		if i%3 == 1 {
			n = min(n, uint64(97*i))
		}
		es, qs := ln.next(n)
		if uint64(len(es)) != n || uint64(len(qs)) != n {
			t.Fatalf("cycle %d: a chunk of %d cycles returned %d and %d", ln.cyc, n, len(es), len(qs))
		}
		for j := range es {
			c := ln.cyc + uint64(j)
			if math.Float64bits(es[j]) != math.Float64bits(want.Energy[c]) || qs[j] != want.Issues[c] {
				t.Fatalf("cycle %d streams (%v, %x), the record holds (%v, %x)", c, es[j], qs[j], want.Energy[c], want.Issues[c])
			}
		}
		ln.cyc += n
	}
	cp.finishLane(ln)
	if ln.win != nil {
		t.Error("finishLane kept the lane's window")
	}
}
