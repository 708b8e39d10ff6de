package testbed

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/scope"
)

// jmpLoop is a steady-state power loop the trace detector can prove
// periodic: jmp-closed (no monotone loop counter), pxor toggling whose
// data pattern repeats every two iterations, and mulpd whose operands
// saturate within a few hundred iterations. An addpd accumulator would
// not do — x += y keeps changing bits (and hence toggle energy) until
// y falls below ulp(x), ~2^53 iterations away — which is exactly the
// aperiodicity the detector's bit-exact verification is there to catch.
func jmpLoop(name string, period int) *asm.Program {
	b := asm.NewBuilder(name)
	b.InitToggle(16, 8)
	b.Label("loop")
	for i := 0; i < period/2; i++ {
		b.RR("pxor", isa.XMM(i%6), isa.XMM(12+i%4))
		b.RR("mulpd", isa.XMM(6+i%6), isa.XMM(12+(i+1)%4))
		b.Nop(1)
	}
	b.Nop(3 * (period - period/2))
	b.Branch("jmp", "loop")
	return b.MustBuild()
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

func relDiffU(a, b uint64) float64 {
	if a == b {
		return 0
	}
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	return float64(hi-lo) / float64(hi)
}

// checkReplayTolerances compares a replay measurement against the exact
// loop under the fast path's accuracy contract: voltage statistics
// within voltTol volts, energy within relative 1e-9, unit issue totals
// exact, failure verdicts identical, cycle counters within 1%.
func checkReplayTolerances(t *testing.T, got, want *Measurement, voltTol float64) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("Cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MinV", got.MinV, want.MinV},
		{"MeanV", got.MeanV, want.MeanV},
		{"MaxDroopV", got.MaxDroopV, want.MaxDroopV},
		{"MaxOvershootV", got.MaxOvershootV, want.MaxOvershootV},
	} {
		if d := math.Abs(c.got - c.want); d > voltTol {
			t.Errorf("%s = %.12f, want %.12f (|Δ| = %g > %g)", c.name, c.got, c.want, d, voltTol)
		}
	}
	if d := relDiff(got.EnergyPJ, want.EnergyPJ); d > 1e-9 {
		t.Errorf("EnergyPJ = %v, want %v (rel %g)", got.EnergyPJ, want.EnergyPJ, d)
	}
	if got.UnitTotals != want.UnitTotals {
		t.Errorf("UnitTotals = %v, want %v", got.UnitTotals, want.UnitTotals)
	}
	if got.Failed != want.Failed {
		t.Errorf("Failed = %v, want %v", got.Failed, want.Failed)
	}
	if got.Failed && want.Failed && got.FailCycle != want.FailCycle {
		t.Errorf("FailCycle = %d, want %d", got.FailCycle, want.FailCycle)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Retired", got.Retired, want.Retired},
		{"Branches", got.Branches, want.Branches},
		{"L1Hits", got.L1Hits, want.L1Hits},
	} {
		if d := relDiffU(c.got, c.want); d > 0.01 {
			t.Errorf("%s = %d, want %d (rel %g)", c.name, c.got, c.want, d)
		}
	}
}

// TestReplayPeriodicMatchesExact is the headline fast-path equivalence
// check: a jmp-closed loop must be detected periodic, replayed with a
// PDN steady-state early exit, and agree with the exact cycle loop to
// tight tolerances; the second run must come from the trace cache.
func TestReplayPeriodicMatchesExact(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("periodic", resonancePeriodCycles(p))
	threads, err := SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2M cycles: long enough for the die-voltage response to converge
	// (the board stage rings for ~10^5-cycle e-folding times) so the
	// PDN early exit demonstrably fires.
	rc := RunConfig{
		Threads:      threads,
		MaxCycles:    2_000_000,
		WarmupCycles: 2000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	exact := rc
	exact.ExactCycleLoop = true
	want, err := cp.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		got, err := cp.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		checkReplayTolerances(t, got, want, 1e-9)
	}
	st := cp.TraceStats()
	if st.Misses != 1 || st.Hits < 1 {
		t.Errorf("trace cache misses/hits = %d/%d, want 1/≥1", st.Misses, st.Hits)
	}
	if st.Periodic != 1 {
		t.Errorf("periodic traces = %d, want 1 (detector missed the jmp loop)", st.Periodic)
	}
	// The detector's decomposition is pinned: a faster fingerprint
	// schedule must find the same head and period.
	for _, tr := range cp.traces.m {
		if tr.headLen != 1985 || tr.periodLen != 1088 {
			t.Errorf("head/period = %d/%d, want 1985/1088", tr.headLen, tr.periodLen)
		}
	}
	if st.PDNEarlyExits < 1 {
		t.Errorf("PDN early exits = %d, want ≥1", st.PDNEarlyExits)
	}
}

// TestReplayNonPeriodicBitExact: a dec/jnz loop's energy follows the
// binary ruler sequence, so period verification must reject it and the
// full-trace replay must be bit-identical to the exact loop.
func TestReplayNonPeriodicBitExact(t *testing.T) {
	p := Bulldozer()
	prog := mulLoop("nonperiodic", resonancePeriodCycles(p))
	threads, err := SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		Threads:      threads,
		MaxCycles:    12000,
		WarmupCycles: 2000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	exact := rc
	exact.ExactCycleLoop = true
	want, err := cp.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("non-periodic replay differs from exact loop:\n got %+v\nwant %+v", got, want)
	}
	if st := cp.TraceStats(); st.Periodic != 0 {
		t.Errorf("periodic traces = %d, want 0 (dec/jnz must fail verification)", st.Periodic)
	}
}

// TestReplayVariants covers the remaining run shapes the fast path must
// reproduce: heterogeneous genomes, dithered runs (the detected period
// folds the dither period in via the fingerprint), FP-throttled runs,
// and MaxInstrs-bounded threads (which must disable detection).
func TestReplayVariants(t *testing.T) {
	p := Bulldozer()
	base := resonancePeriodCycles(p)
	progA := jmpLoop("varA", base)
	progB := jmpLoop("varB", base/2)
	cases := []struct {
		name  string
		rc    RunConfig
		exact bool // expect bit-exact (full-stream) agreement
	}{
		{
			name: "hetero",
			rc: RunConfig{
				Threads: []ThreadSpec{
					{Program: progA, Module: 0, Core: 0},
					{Program: progB, Module: 1, Core: 0},
				},
				MaxCycles: 40000, WarmupCycles: 2000,
			},
		},
		{
			name: "dithered",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 40000, WarmupCycles: 2000,
				Dither: []DitherSpec{{Core: 0, PeriodCycles: 64, PadCycles: 2}},
			},
		},
		{
			name: "throttled",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 40000, WarmupCycles: 2000,
				FPThrottle: 1,
			},
		},
		{
			name: "maxinstrs",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0, MaxInstrs: 5000}},
				MaxCycles: 40000, WarmupCycles: 2000,
			},
			exact: true, // detection disabled → full trace → bit-exact
		},
		{
			name: "skewed",
			rc: RunConfig{
				Threads: []ThreadSpec{
					{Program: progA, Module: 0, Core: 0},
					{Program: progA, Module: 1, Core: 0, StartSkew: 37},
				},
				MaxCycles: 40000, WarmupCycles: 2000,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			exact := tc.rc
			exact.ExactCycleLoop = true
			want, err := cp.Run(exact)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run(tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.exact {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replay differs from exact loop:\n got %+v\nwant %+v", got, want)
				}
			} else {
				checkReplayTolerances(t, got, want, 1e-9)
			}
		})
	}
}

// TestReplayDoneProgramBitExact: a straight-line program finishes long
// before MaxCycles; the trace ends with it and replay must agree with
// the exact loop bit for bit, including the cycle count.
func TestReplayDoneProgramBitExact(t *testing.T) {
	p := Bulldozer()
	b := asm.NewBuilder("straight")
	b.InitToggle(8, 4)
	for i := 0; i < 200; i++ {
		b.RR("mulpd", isa.XMM(i%8), isa.XMM(8+i%4))
		b.Nop(1)
	}
	prog := b.MustBuild()
	rc := RunConfig{
		Threads:      []ThreadSpec{{Program: prog, Module: 0, Core: 0}},
		MaxCycles:    5000,
		WarmupCycles: 100,
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	exact := rc
	exact.ExactCycleLoop = true
	want, err := cp.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("done-program replay differs:\n got %+v\nwant %+v", got, want)
	}
	if got.Cycles >= rc.MaxCycles {
		t.Fatalf("program did not finish early (Cycles = %d)", got.Cycles)
	}
}

// TestReplayInstrumentedPeriodic: scope/trigger/histogram consumers
// need every sample, so a periodic trace is streamed in full — the
// whole voltage path (waveform, histogram, droop events, energy) must
// be bit-identical to the exact loop; only the chip cycle counters are
// extrapolated.
func TestReplayInstrumentedPeriodic(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("instr", resonancePeriodCycles(p))
	threads, err := SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	mkRC := func(h *scope.Histogram) RunConfig {
		return RunConfig{
			Threads:          threads,
			MaxCycles:        20000,
			WarmupCycles:     2000,
			SupplyVolts:      p.Nominal() - 0.10,
			RecordWaveform:   true,
			TriggerThreshold: p.Nominal() - 0.015,
			Histogram:        h,
		}
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wantHist := newHist(t, p)
	exact := mkRC(wantHist)
	exact.ExactCycleLoop = true
	want, err := cp.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	gotHist := newHist(t, p)
	got, err := cp.Run(mkRC(gotHist))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Waveform) != len(want.Waveform) {
		t.Fatalf("waveform length %d != %d", len(got.Waveform), len(want.Waveform))
	}
	for i := range want.Waveform {
		if got.Waveform[i] != want.Waveform[i] {
			t.Fatalf("waveform[%d] = %v, want %v (bit-identical)", i, got.Waveform[i], want.Waveform[i])
		}
	}
	if !reflect.DeepEqual(gotHist, wantHist) {
		t.Fatal("histograms differ")
	}
	if got.MinV != want.MinV || got.MeanV != want.MeanV || got.EnergyPJ != want.EnergyPJ ||
		got.DroopEvents != want.DroopEvents || got.UnitTotals != want.UnitTotals ||
		got.Failed != want.Failed || got.FailCycle != want.FailCycle {
		t.Fatalf("instrumented voltage path diverged:\n got %+v\nwant %+v", got, want)
	}
	checkReplayTolerances(t, got, want, 0)
}

// TestReplayFailureLadderSharesOneTrace: the trace key excludes the
// supply voltage, so the whole voltage-at-failure ladder must build
// phase 1 exactly once and agree with the slow path's verdict.
func TestReplayFailureLadderSharesOneTrace(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("ladder", resonancePeriodCycles(p))
	threads, err := SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 20000, WarmupCycles: 2000}
	floor := p.Nominal() - 0.25

	vSlow, okSlow, err := p.FindFailureVoltage(rc, floor)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vFast, okFast, err := cp.FindFailureVoltage(rc, floor)
	if err != nil {
		t.Fatal(err)
	}
	if vFast != vSlow || okFast != okSlow {
		t.Fatalf("fast ladder (%.4f, %v) != slow (%.4f, %v)", vFast, okFast, vSlow, okSlow)
	}
	if st := cp.TraceStats(); st.Misses != 1 || st.Hits < 1 {
		t.Errorf("ladder trace cache misses/hits = %d/%d, want 1 build shared by ≥1 replays", st.Misses, st.Hits)
	}
}

// TestExactCycleLoopBypassesCache: the escape hatch must not touch the
// trace machinery at all.
func TestExactCycleLoopBypassesCache(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("bypass", resonancePeriodCycles(p))
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		Threads:        []ThreadSpec{{Program: prog, Module: 0, Core: 0}},
		MaxCycles:      8000,
		WarmupCycles:   1000,
		ExactCycleLoop: true,
	}
	if _, err := cp.Run(rc); err != nil {
		t.Fatal(err)
	}
	if st := cp.TraceStats(); st != (TraceStats{}) {
		t.Errorf("ExactCycleLoop touched the trace cache: %+v", st)
	}
}

// TestRunConfigValidate: bad configs must fail identically on both
// paths, before any simulation state is built.
func TestRunConfigValidate(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	good := jmpLoop("ok", 64)
	cases := []struct {
		name string
		rc   RunConfig
	}{
		{"no threads", RunConfig{MaxCycles: 100}},
		{"nil program", RunConfig{Threads: []ThreadSpec{{}}, MaxCycles: 100}},
		{"negative placement", RunConfig{Threads: []ThreadSpec{{Program: good, Module: -1}}, MaxCycles: 100}},
		{"zero dither period", RunConfig{
			Threads:   []ThreadSpec{{Program: good}},
			MaxCycles: 100,
			Dither:    []DitherSpec{{Core: 0, PeriodCycles: 0, PadCycles: 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.rc.Validate(); err == nil {
				t.Error("Validate accepted a bad config")
			}
			if _, err := p.Run(tc.rc); err == nil {
				t.Error("Platform.Run accepted a bad config")
			}
			if _, err := cp.Run(tc.rc); err == nil {
				t.Error("CompiledPlatform.Run accepted a bad config")
			}
		})
	}
}

// TestTraceCacheConcurrent hammers one platform's trace cache from
// parallel goroutines mixing cold builds, cache hits and two distinct
// configs; every result must equal its serial reference. Run under
// -race in CI.
func TestTraceCacheConcurrent(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := resonancePeriodCycles(p)
	progs := []*asm.Program{jmpLoop("ccA", base), mulLoop("ccB", base)}
	mkRC := func(prog *asm.Program) RunConfig {
		threads, err := SpreadPlacement(p.Chip, prog, 4)
		if err != nil {
			t.Fatal(err)
		}
		return RunConfig{Threads: threads, MaxCycles: 20000, WarmupCycles: 2000, SupplyVolts: p.Nominal() - 0.10}
	}
	rcs := []RunConfig{mkRC(progs[0]), mkRC(progs[1])}
	want := make([]*Measurement, len(rcs))
	for i, rc := range rcs {
		if want[i], err = cp.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	cp.ClearTraceCache() // force some workers to rebuild concurrently

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (w + i) % len(rcs)
				m, err := cp.Run(rcs[k])
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(m, want[k]) {
					errs[w] = errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent replay diverged from serial reference" }
