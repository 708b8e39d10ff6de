package testbed

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// romTol is the declared die-voltage tolerance used by the ROM suite:
// 10 µV, orders of magnitude above the ROM's calibrated error at these
// drive levels and orders of magnitude below any failure threshold or
// droop statistic the suite compares.
const romTol = 1e-5

func romPlatform() Platform {
	p := Bulldozer()
	p.ROMTolV = romTol
	return p
}

// TestROMReplayWithinTolerance runs the fast path's non-periodic
// replay shapes — plain, dithered, FP-throttled, heterogeneous, and a
// reduced-supply failure rung — on a ROM-enabled platform and checks
// every measurement against the exact-kernel platform within the
// declared tolerance. Chip-side fields (energy, issue totals, cycle
// counters) must agree exactly: the ROM only touches the PDN.
func TestROMReplayWithinTolerance(t *testing.T) {
	base := resonancePeriodCycles(Bulldozer())
	progA := mulLoop("romA", base)
	progB := mulLoop("romB", base/2)
	cases := []struct {
		name string
		rc   RunConfig
	}{
		{
			name: "plain",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 12000, WarmupCycles: 2000,
			},
		},
		{
			name: "hetero",
			rc: RunConfig{
				Threads: []ThreadSpec{
					{Program: progA, Module: 0, Core: 0},
					{Program: progB, Module: 1, Core: 0},
				},
				MaxCycles: 12000, WarmupCycles: 2000,
			},
		},
		{
			name: "dithered",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 12000, WarmupCycles: 2000,
				Dither: []DitherSpec{{Core: 0, PeriodCycles: 64, PadCycles: 2}},
			},
		},
		{
			name: "throttled",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 12000, WarmupCycles: 2000,
				FPThrottle: 1,
			},
		},
		{
			name: "ladder-rung",
			rc: RunConfig{
				Threads:   []ThreadSpec{{Program: progA, Module: 0, Core: 0}},
				MaxCycles: 12000, WarmupCycles: 2000,
				SupplyVolts: Bulldozer().Nominal() - 0.1125,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exactCP, err := Bulldozer().Compile()
			if err != nil {
				t.Fatal(err)
			}
			romCP, err := romPlatform().Compile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := exactCP.Run(tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := romCP.Run(tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			checkReplayTolerances(t, got, want, romTol)
			if got.EnergyPJ != want.EnergyPJ || got.UnitTotals != want.UnitTotals {
				t.Errorf("chip-side fields moved under ROM: energy %v vs %v", got.EnergyPJ, want.EnergyPJ)
			}
			if st := romCP.TraceStats(); st.ROMReplays != 1 || st.ExactReplays != 0 {
				t.Errorf("ROM platform replay counters = (rom %d, exact %d), want (1, 0)", st.ROMReplays, st.ExactReplays)
			}
			if st := exactCP.TraceStats(); st.ROMReplays != 0 || st.ExactReplays != 1 {
				t.Errorf("exact platform replay counters = (rom %d, exact %d), want (0, 1)", st.ROMReplays, st.ExactReplays)
			}
		})
	}
}

// TestROMFailureLadderMatchesExact: the voltage-at-failure descent —
// the statistic the GA optimizes — must agree between the ROM and
// exact kernels, because the ROM's worst-case error (≪ romTol) is far
// inside the 12.5 mV ladder step.
func TestROMFailureLadderMatchesExact(t *testing.T) {
	prog := mulLoop("romladder", resonancePeriodCycles(Bulldozer()))
	threads, err := SpreadPlacement(Bulldozer().Chip, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 20000, WarmupCycles: 2000}
	floor := Bulldozer().Nominal() - 0.25

	exactCP, err := Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	romCP, err := romPlatform().Compile()
	if err != nil {
		t.Fatal(err)
	}
	vWant, okWant, err := exactCP.FindFailureVoltage(rc, floor)
	if err != nil {
		t.Fatal(err)
	}
	vGot, okGot, err := romCP.FindFailureVoltage(rc, floor)
	if err != nil {
		t.Fatal(err)
	}
	if vGot != vWant || okGot != okWant {
		t.Fatalf("ROM ladder (%.4f, %v) != exact (%.4f, %v)", vGot, okGot, vWant, okWant)
	}
	if st := romCP.TraceStats(); st.ROMReplays == 0 {
		t.Errorf("ladder never used the ROM kernel (rom %d, exact %d)", st.ROMReplays, st.ExactReplays)
	}
}

// TestROMBatchWithinTolerance drives the generation pipeline with
// automatic lane selection on a ROM platform: every slot must match
// the exact platform within tolerance, the batch must actually ride
// the multi-lane ROM kernel, and auto width must split the jobs so
// every worker gets a batch (the L8xW8 regression shape).
func TestROMBatchWithinTolerance(t *testing.T) {
	base := resonancePeriodCycles(Bulldozer())
	rcs := make([]RunConfig, 6)
	for i := range rcs {
		prog := mulLoop("rombatch"+string(rune('a'+i)), base/2+7*i)
		rcs[i] = RunConfig{
			Threads:      []ThreadSpec{{Program: prog, Module: 0, Core: 0}},
			MaxCycles:    10000 + uint64(i)*500,
			WarmupCycles: 2000,
		}
	}
	exactCP, err := Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	romCP, err := romPlatform().Compile()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	wantMS, wantErrs := exactCP.MeasureBatch(rcs, 0, workers)
	gotMS, gotErrs := romCP.MeasureBatch(rcs, 0, workers)
	for i := range rcs {
		if wantErrs[i] != nil || gotErrs[i] != nil {
			t.Fatalf("slot %d errors: exact %v, rom %v", i, wantErrs[i], gotErrs[i])
		}
		checkReplayTolerances(t, gotMS[i], wantMS[i], romTol)
	}
	st := romCP.TraceStats()
	if st.ROMReplays != 6 || st.ExactReplays != 0 {
		t.Errorf("replay counters = (rom %d, exact %d), want (6, 0)", st.ROMReplays, st.ExactReplays)
	}
	// 6 lane jobs over 2 workers: auto width must pick ceil(6/2) = 3
	// lanes → 2 full batches, keeping both workers busy.
	if st.LaneBatches != 2 || st.LaneRuns != 6 {
		t.Errorf("lane batches/runs = %d/%d, want 2/6 under auto width", st.LaneBatches, st.LaneRuns)
	}
}

// TestROMOffBitIdentical pins the default: with ROMTolV zero the
// replay pipeline must not touch the ROM at all, and results are
// bit-identical run to run (the pre-ROM exact path, untouched).
func TestROMOffBitIdentical(t *testing.T) {
	prog := mulLoop("romoff", resonancePeriodCycles(Bulldozer()))
	rc := RunConfig{
		Threads:   []ThreadSpec{{Program: prog, Module: 0, Core: 0}},
		MaxCycles: 10000, WarmupCycles: 2000,
	}
	a, err := Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	ma, err := a.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("ROM-off runs differ:\n %+v\n %+v", ma, mb)
	}
	if st := a.TraceStats(); st.ROMReplays != 0 || st.ExactReplays != 1 {
		t.Errorf("replay counters = (rom %d, exact %d), want (0, 1)", st.ROMReplays, st.ExactReplays)
	}
}

// TestROMTinyToleranceFallsBackExact: a positive tolerance smaller
// than the trace's worst-case ROM error must demote the replay to the
// exact kernel — and produce its bit-exact result — rather than run
// the ROM out of tolerance.
func TestROMTinyToleranceFallsBackExact(t *testing.T) {
	prog := mulLoop("romtiny", resonancePeriodCycles(Bulldozer()))
	rc := RunConfig{
		Threads:   []ThreadSpec{{Program: prog, Module: 0, Core: 0}},
		MaxCycles: 10000, WarmupCycles: 2000,
	}
	exactCP, err := Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	tiny := Bulldozer()
	tiny.ROMTolV = 1e-30
	tinyCP, err := tiny.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := exactCP.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tinyCP.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tiny-tolerance replay differs from exact:\n got %+v\nwant %+v", got, want)
	}
	if st := tinyCP.TraceStats(); st.ROMReplays != 0 || st.ExactReplays != 1 {
		t.Errorf("replay counters = (rom %d, exact %d), want (0, 1)", st.ROMReplays, st.ExactReplays)
	}
}

// TestAutoLanesShape pins the automatic width policy: the narrowest
// width in whole groups that still hands every worker a pass, clamped
// at maxBatchLanes and at nothing else. ROM passes (group 1) are
// ⌈jobs/workers⌉; exact passes (group 8) are cut in whole fused-kernel
// groups.
func TestAutoLanesShape(t *testing.T) {
	for _, tc := range []struct{ jobs, workers, group, want int }{
		{0, 1, 1, 1},
		{1, 8, 1, 1}, // a solo job
		{6, 2, 1, 3},
		// The regression shape: 32 ROM jobs over 8 workers split into 8
		// passes of 4, not 4 passes of 8.
		{32, 8, 1, 4},
		{24, 1, 1, 24},
		{33, 2, 1, 17},
		{64, 2, 1, maxBatchLanes},
		{65, 2, 1, maxBatchLanes},
		{10000, 1, 1, maxBatchLanes},
		// Exact passes: a generation of 19 over 2 workers is 16 + 3
		// (three group calls), not 10 + 9 (four).
		{19, 2, 8, 16},
		{24, 4, 8, 8},
		// 32 exact jobs over 8 workers: 4 passes of one full group each.
		// A 4-lane exact pass would pay a whole group call.
		{32, 8, 8, 8},
		{1, 8, 8, 8},
		{9, 1, 8, 16},
		{33, 2, 8, 24},
		{65, 2, 8, maxBatchLanes},
	} {
		if got := autoLanes(tc.jobs, tc.workers, tc.group); got != tc.want {
			t.Errorf("autoLanes(%d, %d, %d) = %d, want %d", tc.jobs, tc.workers, tc.group, got, tc.want)
		}
	}
}

// TestAutoLanesExactGroups checks the exact-kernel sizing rule over
// every batch of 0–200 lanes and 1–16 workers: the passes cover every
// lane once, none exceeds maxBatchLanes, the widest has as many
// fused-kernel groups as a ⌈jobs/workers⌉ pass would, ⌈jobs/(8·workers)⌉
// clamped at four, and all of them together make ⌈jobs/8⌉ groups, so
// no pass but the last pays for a padded group.
func TestAutoLanesExactGroups(t *testing.T) {
	const g = DefaultBatchLanes
	ceil := func(a, b int) int { return (a + b - 1) / b }
	for jobs := 0; jobs <= 200; jobs++ {
		lanes := make([]*replayLane, jobs)
		for i := range lanes {
			lanes[i] = &replayLane{slot: i}
		}
		for workers := 1; workers <= 16; workers++ {
			passes := cutPasses(nil, lanes, autoLanes(jobs, workers, g))
			seen := make([]int, jobs)
			widest, groups := 0, 0
			for _, pass := range passes {
				if len(pass) == 0 || len(pass) > maxBatchLanes {
					t.Fatalf("jobs %d workers %d: a pass of %d lanes", jobs, workers, len(pass))
				}
				for _, ln := range pass {
					seen[ln.slot]++
				}
				widest = max(widest, ceil(len(pass), g))
				groups += ceil(len(pass), g)
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("jobs %d workers %d: lane %d rides %d passes", jobs, workers, i, n)
				}
			}
			if want := min(ceil(jobs, g*workers), maxBatchLanes/g); widest != want {
				t.Errorf("jobs %d workers %d: widest pass %d groups, want %d", jobs, workers, widest, want)
			}
			if want := ceil(jobs, g); groups != want {
				t.Errorf("jobs %d workers %d: %d group calls, want %d", jobs, workers, groups, want)
			}
		}
	}
}

// TestPlatformDigestROMSensitivity: enabling the ROM, or changing its
// tolerance, changes the platform digest — so corpus replay against a
// baseline taken on the exact platform classifies as platform skew,
// never DRIFT — while ROMTolV zero leaves every pre-ROM digest (and
// every corpus baselined on one) untouched.
func TestPlatformDigestROMSensitivity(t *testing.T) {
	base := Bulldozer()
	d0 := PlatformDigest(base)

	romA := base
	romA.ROMTolV = romTol
	romB := base
	romB.ROMTolV = 2 * romTol
	dA, dB := PlatformDigest(romA), PlatformDigest(romB)
	if dA == d0 {
		t.Error("enabling ROMTolV did not change the platform digest")
	}
	if dA == dB {
		t.Error("different ROM tolerances share a platform digest")
	}

	zero := base
	zero.ROMTolV = 0
	if PlatformDigest(zero) != d0 {
		t.Error("explicit ROMTolV = 0 changed the digest (must stay the exact-platform digest)")
	}
}

// TestCompileRejectsBadROMTol: a negative or NaN tolerance is refused
// where every compiled path starts, before it can name a platform
// digest.
func TestCompileRejectsBadROMTol(t *testing.T) {
	for _, tol := range []float64{-1, -1e-9, math.NaN()} {
		p := Bulldozer()
		p.ROMTolV = tol
		if _, err := p.Compile(); err == nil || !strings.Contains(err.Error(), "ROM tolerance must be a non-negative voltage") {
			t.Errorf("ROMTolV %v: Compile error = %v", tol, err)
		}
	}
	if _, err := romPlatform().Compile(); err != nil {
		t.Fatal(err)
	}
}
