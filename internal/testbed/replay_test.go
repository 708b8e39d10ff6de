package testbed

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/scope"
)

// jmpLoop is a steady-state power loop closed by jmp, so no monotone
// loop counter changes its energy: pxor toggling whose data pattern
// repeats every two iterations, and mulpd whose operands saturate
// within a few hundred iterations. Its trace settles into an exact
// repeat, which is the shape a replay must not treat differently from
// any other.
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

// checkReplayTolerances compares a replay measurement against the exact
// loop: the voltage statistics within voltTol volts (the reduced-order
// kernel's declared tolerance on a ROM platform), and everything the
// chip side determines exactly — cycles, energy by bits, unit issue
// totals, the failure verdict and cycle, retired instructions and every
// chip counter.
func checkReplayTolerances(t *testing.T, got, want *Measurement, voltTol float64) {
	t.Helper()
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
	if math.Float64bits(got.EnergyPJ) != math.Float64bits(want.EnergyPJ) {
		t.Errorf("EnergyPJ = %v, want %v (bit-identical)", got.EnergyPJ, want.EnergyPJ)
	}
	if got.UnitTotals != want.UnitTotals {
		t.Errorf("UnitTotals = %v, want %v", got.UnitTotals, want.UnitTotals)
	}
	if got.Failed != want.Failed || got.FailCycle != want.FailCycle {
		t.Errorf("Failed, FailCycle = %v, %d, want %v, %d", got.Failed, got.FailCycle, want.Failed, want.FailCycle)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Cycles", got.Cycles, want.Cycles},
		{"Retired", got.Retired, want.Retired},
		{"Branches", got.Branches, want.Branches},
		{"Mispredicts", got.Mispredicts, want.Mispredicts},
		{"L1Hits", got.L1Hits, want.L1Hits},
		{"L1Misses", got.L1Misses, want.L1Misses},
		{"L2Hits", got.L2Hits, want.L2Hits},
		{"L2Misses", got.L2Misses, want.L2Misses},
		{"L3Hits", got.L3Hits, want.L3Hits},
		{"L3Misses", got.L3Misses, want.L3Misses},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestReplayPeriodicMatchesExact: a jmp-closed loop, whose trace
// settles into an exact repeat, must replay bit-identically to the
// exact cycle loop, and the second run must come from the trace cache.
func TestReplayPeriodicMatchesExact(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("periodic", resonancePeriodCycles(p))
	threads, err := SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		Threads:      threads,
		MaxCycles:    40000,
		WarmupCycles: 2000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		got, err := cp.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: replay differs from exact loop:\n got %+v\nwant %+v", pass, got, want)
		}
	}
	if st := cp.TraceStats(); st.Misses != 1 || st.Hits < 1 {
		t.Errorf("trace cache misses/hits = %d/%d, want 1/≥1", st.Misses, st.Hits)
	}
}

// TestReplayStallLoopBitExact replays a divsd stall loop: while the
// divider stalls, the chip repeats a 2-cycle pattern for hundreds of
// cycles, yet the dec/jnz counter keeps the run from being periodic.
// Four threads over the benchmark search's window must replay
// bit-identically to the exact loop — droop, energy and counters —
// with and without a NOP run before dec.
func TestReplayStallLoopBitExact(t *testing.T) {
	p := Bulldozer()
	for _, nops := range []int{0, 8} {
		t.Run(fmt.Sprintf("nops%d", nops), func(t *testing.T) {
			b := asm.NewBuilder("stall")
			b.InitToggle(16, 8)
			b.RI("movimm", isa.RCX, 1<<40)
			b.Label("loop")
			b.RR("divsd", isa.XMM(7), isa.XMM(13))
			b.Nop(nops)
			b.RR("dec", isa.RCX, isa.RCX)
			b.Branch("jnz", "loop")
			threads, err := SpreadPlacement(p.Chip, b.MustBuild(), 4)
			if err != nil {
				t.Fatal(err)
			}
			rc := RunConfig{Threads: threads, MaxCycles: 23000, WarmupCycles: 3000}
			cp, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replay differs from exact loop:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReplayNonPeriodicBitExact: a dec/jnz loop's energy follows the
// binary ruler sequence; its replay must be bit-identical to the exact
// loop.
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
	want, err := p.Run(rc)
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
}

// TestReplayVariants covers the remaining run shapes the fast path must
// reproduce bit for bit: heterogeneous genomes, dithered runs,
// FP-throttled runs, MaxInstrs-bounded threads and start skew.
func TestReplayVariants(t *testing.T) {
	p := Bulldozer()
	base := resonancePeriodCycles(p)
	progA := jmpLoop("varA", base)
	progB := jmpLoop("varB", base/2)
	cases := []struct {
		name string
		rc   RunConfig
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
			want, err := p.Run(tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run(tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replay differs from exact loop:\n got %+v\nwant %+v", got, want)
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
	want, err := p.Run(rc)
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

// TestReplayInstrumentedPeriodic: scope, trigger and histogram
// consumers see every sample of a jmp loop's replay, and the whole
// measurement — waveform, histogram, droop events, energy and chip
// counters — must be bit-identical to the exact loop.
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
	want, err := p.Run(mkRC(wantHist))
	if err != nil {
		t.Fatal(err)
	}
	gotHist := newHist(t, p)
	got, err := cp.Run(mkRC(gotHist))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Waveform) == 0 {
		t.Fatal("no waveform recorded")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instrumented replay differs from exact loop:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(gotHist, wantHist) {
		t.Fatal("histograms differ")
	}
}

// TestReplayFailureLadderSharesOneTrace: the trace address excludes the
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

// TestMemoKeepsNoKeyCopies runs a failure ladder's shape, one 2,000-cycle
// search candidate at 200 supplies, so the memo holds 200 measurements
// of one trace. Each entry keys the trace by its 32-byte address, so
// the heap the platform retains stays under 1 MiB: the trace, the memo
// and one settled network per supply. An 18 KB key kept per entry
// would retain 3.6 MB.
func TestMemoKeepsNoKeyCopies(t *testing.T) {
	p := Bulldozer()
	threads, err := SpreadPlacement(p.Chip, searchShapeProgram(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 2000, WarmupCycles: 200}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const supplies = 200
	before := heap()
	for i := range supplies {
		rc.SupplyVolts = p.Nominal() - 0.001*float64(i)
		if _, err := cp.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	ts := cp.TraceStats()
	if ts.Misses != 1 || ts.Hits != supplies-1 || ts.MemoHits != 0 {
		t.Fatalf("%d misses, %d hits and %d memo hits, want 1, %d and 0", ts.Misses, ts.Hits, ts.MemoHits, supplies-1)
	}
	retained := int64(after) - int64(before)
	t.Logf("%d supplies retain %d bytes; the trace cache counts %d", supplies, retained, ts.Bytes)
	if retained >= 1<<20 {
		t.Errorf("%d supplies retain %d bytes, want under 1 MiB", supplies, retained)
	}
	runtime.KeepAlive(cp)
}

// TestUntraceableRunsUsePlatformRun: a run with an OS model and a run
// with no MaxCycles have no trace, so the compiled platform hands them
// to Platform.Run — the same Measurement, and the trace machinery
// untouched.
func TestUntraceableRunsUsePlatformRun(t *testing.T) {
	p := Bulldozer()
	prog := jmpLoop("untraceable", resonancePeriodCycles(p))
	cases := []struct {
		name string
		rc   func() RunConfig // fresh per run: a scheduler is stateful
	}{
		{"os-model", func() RunConfig {
			sched, err := hostos.New(p.Chip.Threads(), 2000, 150, 300, 7)
			if err != nil {
				t.Fatal(err)
			}
			threads, err := SpreadPlacement(p.Chip, prog, 4)
			if err != nil {
				t.Fatal(err)
			}
			return RunConfig{Threads: threads, MaxCycles: 8000, WarmupCycles: 1000, OS: sched}
		}},
		{"no-max-cycles", func() RunConfig {
			return RunConfig{Threads: []ThreadSpec{{Program: prog, MaxInstrs: 6000}}, WarmupCycles: 1000}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run(tc.rc())
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run(tc.rc())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("compiled run differs from Platform.Run:\n got %+v\nwant %+v", got, want)
			}
			if st := cp.TraceStats(); st != (TraceStats{}) {
				t.Errorf("untraceable run touched the trace cache: %+v", st)
			}
		})
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
