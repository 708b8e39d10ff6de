package testbed

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/scope"
)

// mulLoop builds a resonant HP/LP loop from mulpd/addpd only, so the
// same program runs on both the FMA Bulldozer and the FMA-less Phenom.
func mulLoop(name string, period int) *asm.Program {
	b := asm.NewBuilder(name)
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, 1<<40)
	b.Label("loop")
	for i := 0; i < period/2; i++ {
		b.RR("mulpd", isa.XMM(i%12), isa.XMM(12+i%4))
		b.RR("addpd", isa.XMM((i+6)%12), isa.XMM(12+(i+1)%4))
		b.Nop(1)
	}
	b.Nop(3 * (period - period/2))
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	return b.MustBuild()
}

// equivalenceConfig builds one fully-instrumented run config for the
// platform: waveform capture, droop trigger, and (via hist) histogram.
func equivalenceConfig(t *testing.T, p Platform, supply float64, hist *scope.Histogram) RunConfig {
	t.Helper()
	period := resonancePeriodCycles(p)
	threads, err := SpreadPlacement(p.Chip, mulLoop("equiv", period), 4)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Threads:          threads,
		MaxCycles:        12000,
		WarmupCycles:     2000,
		SupplyVolts:      supply,
		RecordWaveform:   true,
		TriggerThreshold: p.Nominal() - 0.015,
		Histogram:        hist,
	}
}

func newHist(t *testing.T, p Platform) *scope.Histogram {
	t.Helper()
	h, err := scope.NewHistogram(p.Nominal()-0.3, p.Nominal()+0.2, 200)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCompiledRunMatchesSlowPathBitwise is the equivalence golden test:
// for both presets, at nominal and reduced supply, a compiled-platform
// run must reproduce the fresh-state slow path bit for bit — every
// droop statistic, the full waveform, the histogram, and the failure
// verdict. It also runs the compiled path twice so the second run
// exercises pooled (reset) chip and PDN state.
func TestCompiledRunMatchesSlowPathBitwise(t *testing.T) {
	cases := []struct {
		platform Platform
		dropV    float64 // supply reduction for the second sub-case
	}{
		{Bulldozer(), 0.15},
		{Phenom(), 0.15},
	}
	for _, tc := range cases {
		p := tc.platform
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, supply := range []float64{0, p.Nominal() - tc.dropV} {
			name := p.Chip.Name + "/nominal"
			if supply > 0 {
				name = p.Chip.Name + "/reduced"
			}
			t.Run(name, func(t *testing.T) {
				slowHist := newHist(t, p)
				want, err := p.Run(equivalenceConfig(t, p, supply, slowHist))
				if err != nil {
					t.Fatal(err)
				}
				for pass := 1; pass <= 2; pass++ {
					fastHist := newHist(t, p)
					got, err := cp.Run(equivalenceConfig(t, p, supply, fastHist))
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Waveform) != len(want.Waveform) {
						t.Fatalf("pass %d: waveform length %d != %d", pass, len(got.Waveform), len(want.Waveform))
					}
					for i := range want.Waveform {
						if got.Waveform[i] != want.Waveform[i] {
							t.Fatalf("pass %d: waveform[%d] = %v, want %v (bit-identical)", pass, i, got.Waveform[i], want.Waveform[i])
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d: measurements differ:\n got %+v\nwant %+v", pass, got, want)
					}
					if !reflect.DeepEqual(fastHist, slowHist) {
						t.Fatalf("pass %d: histograms differ", pass)
					}
				}
			})
		}
	}
}

// TestCompiledFindFailureVoltageMatchesSlow checks the whole
// voltage-at-failure procedure — the settle-cache's hot consumer —
// lands on the same voltage as the slow path.
func TestCompiledFindFailureVoltageMatchesSlow(t *testing.T) {
	p := Bulldozer()
	period := resonancePeriodCycles(p)
	threads, err := SpreadPlacement(p.Chip, mulLoop("vf", period), 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 10000, WarmupCycles: 2000}
	floor := p.Nominal() - 0.25

	vSlow, okSlow, err := p.FindFailureVoltage(rc, floor)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Twice: the second search replays every settle from the cache.
	for pass := 1; pass <= 2; pass++ {
		vFast, okFast, err := cp.FindFailureVoltage(rc, floor)
		if err != nil {
			t.Fatal(err)
		}
		if vFast != vSlow || okFast != okSlow {
			t.Fatalf("pass %d: compiled failure voltage (%.4f, %v) != slow (%.4f, %v)",
				pass, vFast, okFast, vSlow, okSlow)
		}
	}
}

// TestCompiledRunConcurrent drives one CompiledPlatform from many
// goroutines (as ga.Config.Parallel does) and checks every result
// stays bit-identical to a serial reference. Run under -race in CI.
func TestCompiledRunConcurrent(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	supply := p.Nominal() - 0.10
	want, err := cp.Run(equivalenceConfig(t, p, supply, nil))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	got := make([]*Measurement, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = cp.Run(equivalenceConfig(t, p, supply, nil))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d measurement diverged from reference", w)
		}
	}
}

// TestChipResetMatchesFresh checks the pooled-chip invariant directly:
// a reset chip must step exactly like a newly built one. First one
// shape through the pool, then one chip through a sequence of shapes,
// reset between captures as the pool resets it: 1, 4 and 8 threads,
// odd run lengths, lea and barrier programs, skewed and dithered runs,
// and a grouped capture that diverges. Each capture must equal a fresh
// chip's, trace and end counters.
func TestChipResetMatchesFresh(t *testing.T) {
	t.Run("pool", testPooledRunMatchesFresh)
	for _, tiny := range []bool{false, true} {
		cp := replicatePlatform(t, tiny)
		pooled, err := cpu.NewChip(cp.p.Chip, cp.p.Power)
		if err != nil {
			t.Fatal(err)
		}
		period := resonancePeriodCycles(cp.p)
		mul := mulLoop("reset", period)
		diverged := false
		for _, sh := range []struct {
			name      string
			prog      *asm.Program
			n         int
			maxCycles uint64
			skew      bool
			dither    bool
			sibling   *asm.Program // when set, what the modules' second cores run
		}{
			{"1T", mul, 1, 2000, false, false, nil},
			{"4T", mul, 4, 2000, false, false, nil},
			{"8T-odd", mul, 8, 1001, false, false, nil},
			{"8T-mixed", mul, 8, 2000, false, false, plainLoop()},
			{"8T", mul, 8, 2000, false, false, nil},
			{"lea", leaLoop(), 4, 1503, false, false, nil},
			{"barrier", barrierLoop(), 8, 1500, false, false, nil},
			{"skewed", mul, 4, 1777, true, false, nil},
			{"dithered", mul, 4, 2001, false, true, nil},
			{"conflict", conflictProgram(0x0e), 2, 2999, false, false, nil},
			{"4T-after", mul, 4, 2000, false, false, nil},
			{"2T-conflict-after", conflictProgram(0x0f), 2, 999, false, false, nil},
		} {
			threads, err := SpreadPlacement(cp.p.Chip, sh.prog, sh.n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range threads {
				if threads[i].Core == 1 && sh.sibling != nil {
					threads[i].Program = sh.sibling
				}
			}
			rc := RunConfig{Threads: threads, MaxCycles: sh.maxCycles}
			if sh.skew {
				for i := range rc.Threads {
					rc.Threads[i].StartSkew = uint64(3 * (i % 2))
				}
			}
			if sh.dither {
				rc.Dither = []DitherSpec{{Core: 2, PeriodCycles: 97, PadCycles: 2}}
			}
			group := len(rc.Dither) == 0
			fresh, err := cpu.NewChip(cp.p.Chip, cp.p.Power)
			if err != nil {
				t.Fatal(err)
			}
			want, got := new(chipTrace), new(chipTrace)
			_, werr := cp.capture(fresh, want, rc, group)
			pooled.Reset()
			_, gerr := cp.capture(pooled, got, rc, group)
			if werr != gerr {
				t.Fatalf("tiny=%v %s: pooled chip's capture returned %v, a fresh chip's %v", tiny, sh.name, gerr, werr)
			}
			if werr != nil && werr != errDiverged {
				t.Fatal(werr)
			}
			diverged = diverged || werr == errDiverged
			sameTrace(t, fmt.Sprintf("tiny=%v %s: pooled chip", tiny, sh.name), got, want)
		}
		if diverged != tiny {
			t.Errorf("tiny=%v: a grouped capture diverged: %v", tiny, diverged)
		}
	}
}

func testPooledRunMatchesFresh(t *testing.T) {
	p := Bulldozer()
	period := resonancePeriodCycles(p)
	prog := mulLoop("reset", period)
	run := func(m *Measurement) (uint64, float64, uint64) {
		return m.Retired, m.EnergyPJ, m.Mispredicts
	}
	want := run4T(t, p, prog, 8000, nil)

	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	threads, _ := SpreadPlacement(p.Chip, prog, 4)
	rc := RunConfig{Threads: threads, MaxCycles: 8000, WarmupCycles: 2000}
	for pass := 1; pass <= 3; pass++ {
		got, err := cp.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		gr, ge, gm := run(got)
		wr, we, wm := run(want)
		if gr != wr || ge != we || gm != wm {
			t.Fatalf("pass %d: reset chip diverged: retired/energy/mispredicts (%d,%v,%d) != (%d,%v,%d)",
				pass, gr, ge, gm, wr, we, wm)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: full measurements differ", pass)
		}
	}
}
