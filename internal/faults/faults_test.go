package faults

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/testbed"
)

// fakeRunner is a deterministic stand-in for the platform: the
// measurement is a pure function of the RunConfig, and every received
// config is recorded for inspection.
type fakeRunner struct {
	mu  sync.Mutex
	got []testbed.RunConfig
}

func (f *fakeRunner) Run(rc testbed.RunConfig) (*testbed.Measurement, error) {
	f.mu.Lock()
	f.got = append(f.got, rc)
	f.mu.Unlock()
	m := &testbed.Measurement{
		Cycles:        rc.MaxCycles,
		MaxDroopV:     0.050,
		MaxOvershootV: 0.020,
		MinV:          0.950,
		MeanV:         1.000,
		AvgPowerW:     10,
	}
	if rc.FPThrottle > 0 {
		m.MaxDroopV = 0.030 // throttling depresses the droop
	}
	if rc.RecordWaveform {
		m.Waveform = []float64{1.00, 0.99, 0.98, 0.97}
	}
	return m, nil
}

func (f *fakeRunner) configs() []testbed.RunConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]testbed.RunConfig(nil), f.got...)
}

// distinctConfigs builds n RunConfigs with different content hashes.
func distinctConfigs(n int) []testbed.RunConfig {
	cfgs := make([]testbed.RunConfig, n)
	for i := range cfgs {
		cfgs[i] = testbed.RunConfig{
			Threads:        []testbed.ThreadSpec{{Core: i % 4}},
			MaxCycles:      uint64(1000 + i),
			RecordWaveform: i%2 == 0,
		}
	}
	return cfgs
}

// outcome flattens a Run result for comparison.
func outcome(m *testbed.Measurement, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("ok:%d:%.9f:%.9f:%.9f:%v", m.Cycles, m.MaxDroopV, m.MinV, m.MeanV, m.Waveform)
}

func TestSameSeedSameFaultsRegardlessOfOrder(t *testing.T) {
	cfgs := distinctConfigs(64)
	lab := Lab(7)

	// Injector A runs the configs forward, serially.
	a := MustNew(lab, &fakeRunner{})
	fwd := make(map[uint64]string, len(cfgs))
	for i, rc := range cfgs {
		fwd[uint64(i)] = outcome(a.Run(rc))
	}

	// Injector B runs them backwards.
	b := MustNew(lab, &fakeRunner{})
	for i := len(cfgs) - 1; i >= 0; i-- {
		if got := outcome(b.Run(cfgs[i])); got != fwd[uint64(i)] {
			t.Fatalf("reverse-order run %d diverged:\n  fwd: %s\n  rev: %s", i, fwd[uint64(i)], got)
		}
	}

	// Injector C runs them concurrently.
	c := MustNew(lab, &fakeRunner{})
	results := make([]string, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = outcome(c.Run(cfgs[i]))
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != fwd[uint64(i)] {
			t.Fatalf("concurrent run %d diverged:\n  fwd: %s\n  par: %s", i, fwd[uint64(i)], got)
		}
	}
}

func TestDifferentSeedsFaultDifferently(t *testing.T) {
	cfgs := distinctConfigs(64)
	a, b := MustNew(Lab(1), &fakeRunner{}), MustNew(Lab(2), &fakeRunner{})
	same := 0
	for _, rc := range cfgs {
		if outcome(a.Run(rc)) == outcome(b.Run(rc)) {
			same++
		}
	}
	if same == len(cfgs) {
		t.Error("two seeds produced identical fault streams across 64 runs")
	}
}

func TestRetryDrawsFreshOutcome(t *testing.T) {
	// With a 50% transient rate, retrying a lost run must eventually
	// succeed: each attempt on the same content draws a new outcome.
	cfg := Config{Seed: 3, TransientRate: 0.5}
	in := MustNew(cfg, &fakeRunner{})
	rc := testbed.RunConfig{MaxCycles: 500}

	sawLoss, sawSuccess := false, false
	for i := 0; i < 64 && !(sawLoss && sawSuccess); i++ {
		if _, err := in.Run(rc); err != nil {
			sawLoss = true
		} else {
			sawSuccess = true
		}
	}
	if !sawLoss || !sawSuccess {
		t.Fatalf("64 attempts at 50%% transient rate: loss=%v success=%v", sawLoss, sawSuccess)
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	fr := &fakeRunner{}
	in := MustNew(Config{Seed: 9}, fr)
	rc := testbed.RunConfig{MaxCycles: 1234, RecordWaveform: true}
	m, err := in.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&fakeRunner{}).Run(rc)
	if m.MaxDroopV != want.MaxDroopV || m.MinV != want.MinV || m.MeanV != want.MeanV {
		t.Errorf("zero-fault injector perturbed the measurement: %+v vs %+v", m, want)
	}
	if got := in.Stats(); got.Runs != 1 || got.Transients != 0 || got.Throttled != 0 || got.Skewed != 0 {
		t.Errorf("unexpected stats for clean run: %+v", got)
	}
}

func TestTransientErrorTyping(t *testing.T) {
	in := MustNew(Config{Seed: 1, TransientRate: 1}, &fakeRunner{})
	_, err := in.Run(testbed.RunConfig{MaxCycles: 10})
	if err == nil {
		t.Fatal("rate-1 transient config returned no error")
	}
	if !IsTransient(err) {
		t.Error("IsTransient false for an injected loss")
	}
	if !errors.Is(err, ErrTransient) {
		t.Error("errors.Is(err, ErrTransient) false")
	}
	// The ga package detects transience structurally, without importing
	// this package — via an interface probe.
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Error("error does not expose Transient() true")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op == "" {
		t.Error("typed *Error with Op not in chain")
	}
}

func TestLaunchSkewPerturbsThreadsWithoutMutatingCaller(t *testing.T) {
	fr := &fakeRunner{}
	in := MustNew(Config{Seed: 5, LaunchSkewMax: 8}, fr)
	threads := []testbed.ThreadSpec{{Core: 0, StartSkew: 2}, {Core: 1, StartSkew: 0}}
	rc := testbed.RunConfig{Threads: threads, MaxCycles: 100}
	if _, err := in.Run(rc); err != nil {
		t.Fatal(err)
	}
	if threads[0].StartSkew != 2 || threads[1].StartSkew != 0 {
		t.Error("injector mutated the caller's thread slice")
	}
	got := fr.configs()[0].Threads
	if got[0].StartSkew < 2 || got[0].StartSkew > 2+8 || got[1].StartSkew > 8 {
		t.Errorf("skewed StartSkews out of bounds: %d, %d", got[0].StartSkew, got[1].StartSkew)
	}
}

func TestThrottleEpisodeCapsFPIssue(t *testing.T) {
	fr := &fakeRunner{}
	in := MustNew(Config{Seed: 5, ThrottleRate: 1, ThrottleLimit: 2}, fr)
	if _, err := in.Run(testbed.RunConfig{MaxCycles: 100}); err != nil {
		t.Fatal(err)
	}
	if got := fr.configs()[0].FPThrottle; got != 2 {
		t.Errorf("throttled run reached platform with FPThrottle %d, want 2", got)
	}
	if s := in.Stats(); s.Throttled != 1 {
		t.Errorf("Throttled counter %d, want 1", s.Throttled)
	}
}

func TestDropoutOnlyAffectsWaveformRuns(t *testing.T) {
	in := MustNew(Config{Seed: 5, DropoutRate: 1}, &fakeRunner{})
	if _, err := in.Run(testbed.RunConfig{MaxCycles: 100}); err != nil {
		t.Errorf("dropout fired on a run with no waveform capture: %v", err)
	}
	_, err := in.Run(testbed.RunConfig{MaxCycles: 100, RecordWaveform: true})
	if !IsTransient(err) {
		t.Errorf("waveform run did not drop: %v", err)
	}
	if s := in.Stats(); s.Dropouts != 1 || s.Transients != 1 {
		t.Errorf("dropout stats %+v", s)
	}
}

func TestDriftAndNoiseStayBounded(t *testing.T) {
	const driftMax, noiseMax = 0.002, 0.001
	in := MustNew(Config{Seed: 11, DriftMaxV: driftMax, ScopeNoiseV: noiseMax}, &fakeRunner{})
	clean, _ := (&fakeRunner{}).Run(testbed.RunConfig{MaxCycles: 100})
	perturbed := false
	for i := 0; i < 32; i++ {
		rc := testbed.RunConfig{MaxCycles: uint64(100 + i)}
		m, err := in.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(m.MeanV - clean.MeanV); d > driftMax {
			t.Fatalf("MeanV drifted by %g > bound %g", d, driftMax)
		}
		if d := math.Abs(m.MinV - clean.MinV); d > driftMax+noiseMax {
			t.Fatalf("MinV moved by %g > bound %g", d, driftMax+noiseMax)
		}
		if d := math.Abs(m.MaxDroopV - clean.MaxDroopV); d > driftMax+noiseMax {
			t.Fatalf("MaxDroopV moved by %g > bound %g", d, driftMax+noiseMax)
		}
		if m.MeanV != clean.MeanV || m.MaxDroopV != clean.MaxDroopV {
			perturbed = true
		}
	}
	if !perturbed {
		t.Error("32 runs, no measurement perturbed at all")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{TransientRate: -0.1},
		{TransientRate: 1.5},
		{DropoutRate: 2},
		{ThrottleRate: -1},
		{ScopeNoiseV: -0.001},
		{DriftMaxV: -0.001},
		{ThrottleLimit: -1},
		{TransientRate: math.NaN()},
		{DropoutRate: math.NaN()},
		{ThrottleRate: math.NaN()},
		{ScopeNoiseV: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if err := Lab(1).Validate(); err != nil {
		t.Errorf("Lab preset invalid: %v", err)
	}
	if _, err := New(Lab(1), nil); err == nil {
		t.Error("nil runner accepted")
	}
}

func TestLabRatesActuallyFire(t *testing.T) {
	in := MustNew(Lab(42), &fakeRunner{})
	for _, rc := range distinctConfigs(200) {
		in.Run(rc)
	}
	s := in.Stats()
	if s.Runs != 200 {
		t.Fatalf("Runs = %d, want 200", s.Runs)
	}
	if s.Transients == 0 || s.Skewed == 0 {
		t.Errorf("Lab preset too quiet over 200 runs: %+v", s)
	}
}
