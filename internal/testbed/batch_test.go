package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
)

// batchSlate builds a mixed generation exercising every MeasureBatch
// path: distinct dec/jnz traces (lane kernel), a shared trace at two
// supplies, a long jmp-closed trace, a waveform consumer, a run with no
// MaxCycles (no trace: Platform.Run), a MaxInstrs-bounded run, exact
// duplicates (memo dedup) and one invalid config (per-slot error).
func batchSlate(t *testing.T, p Platform) []RunConfig {
	t.Helper()
	base := resonancePeriodCycles(p)
	place := func(prog *asm.Program) []ThreadSpec {
		threads, err := SpreadPlacement(p.Chip, prog, 4)
		if err != nil {
			t.Fatal(err)
		}
		return threads
	}
	var rcs []RunConfig
	// Lane fodder with staggered lengths so lanes retire at different
	// times mid-batch.
	for i, cycles := range []uint64{8000, 12000, 16000, 10000, 14000} {
		rcs = append(rcs, RunConfig{
			Threads:      place(mulLoop(fmt.Sprintf("lane%d", i), base+2*i)),
			MaxCycles:    cycles,
			WarmupCycles: 1000,
			SupplyVolts:  p.Nominal() - 0.08,
		})
	}
	shared := place(mulLoop("shared", base/2))
	rcs = append(rcs,
		// Same trace, two supplies: one capture, two lane replays.
		RunConfig{Threads: shared, MaxCycles: 9000, WarmupCycles: 500},
		RunConfig{Threads: shared, MaxCycles: 9000, WarmupCycles: 500, SupplyVolts: p.Nominal() - 0.12},
		// The longest lane: a jmp loop whose trace repeats exactly.
		RunConfig{Threads: place(jmpLoop("periodicB", base)), MaxCycles: 60000, WarmupCycles: 2000, SupplyVolts: p.Nominal() - 0.10},
		// Sample consumer: a lane feeding the scope every sample.
		RunConfig{Threads: place(jmpLoop("wave", base)), MaxCycles: 15000, WarmupCycles: 1000, RecordWaveform: true},
		// No MaxCycles, so no trace: the slot runs on Platform.Run.
		RunConfig{Threads: []ThreadSpec{{Program: mulLoop("untraced", base), MaxInstrs: 3000}}, WarmupCycles: 500},
		// A MaxInstrs-bounded thread finishes before MaxCycles.
		RunConfig{Threads: []ThreadSpec{{Program: mulLoop("bounded", base), MaxInstrs: 4000}}, MaxCycles: 20000, WarmupCycles: 500},
		// Exact duplicates of slot 0: intra-batch memo dedup.
		rcs[0],
		rcs[0],
		// Invalid: per-slot error, must not poison the batch.
		RunConfig{MaxCycles: 100},
	)
	return rcs
}

// TestMeasureBatchMatchesRun is the generation-pipeline equivalence
// property: for every lane width, worker count and population order,
// each slot of MeasureBatch must equal the serial CompiledPlatform.Run
// of the same config bit for bit, and on this exact platform every Run
// must equal Platform.Run. Run under -race in CI.
func TestMeasureBatchMatchesRun(t *testing.T) {
	p := Bulldozer()
	rcs := batchSlate(t, p)
	ref, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range rcs {
		want, wantErr := p.Run(rc)
		got, err := ref.Run(rc)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("slot %d: err = %v, Platform.Run err = %v", i, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: compiled run differs from Platform.Run:\n got %+v\nwant %+v", i, got, want)
		}
	}
	st := checkBatchMatchesRun(t, p, rcs)
	if st.BatchRuns == 0 {
		t.Error("TraceStats.BatchRuns = 0 after MeasureBatch calls")
	}
	if st.LaneBatches == 0 || st.LaneRuns < st.LaneBatches {
		t.Errorf("lane counters %d runs / %d batches: kernel never engaged", st.LaneRuns, st.LaneBatches)
	}

	// Every replayed slot rides a lane: 5 staggered + 2 shared-trace +
	// jmp loop + waveform + MaxInstrs-bounded. The untraced slot, the
	// two memo duplicates and the invalid slot never reach the kernel.
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp.MeasureBatch(rcs, 0, 1)
	if st := cp.TraceStats(); st.LaneRuns != 10 {
		t.Errorf("one slate batch: lane runs %d, want 10", st.LaneRuns)
	}
}

// TestMeasureBatchMatchesRunMixedROM is the same property on a ROM
// platform whose tolerance lies between the slate's trace error bounds
// (ErrPerAmpV × peak drive amps): the ROM admits some lanes and refuses
// others, yet every slot must still equal Run bit for bit, because a
// lane's kernel — and so its output — never depends on which lanes
// share its pass.
func TestMeasureBatchMatchesRunMixedROM(t *testing.T) {
	p := Bulldozer()
	rcs := batchSlate(t, p)
	p.ROMTolV = mixedROMTol(t, p, rcs)
	st := checkBatchMatchesRun(t, p, rcs)
	if st.ROMReplays == 0 || st.ExactReplays == 0 {
		t.Errorf("replay counters (rom %d, exact %d): tolerance %g did not split the slate", st.ROMReplays, st.ExactReplays, p.ROMTolV)
	}
}

// mixedROMTol returns a ROM tolerance at the median of the slate's
// distinct ROM error bounds, so the ROM admits the traces below it and
// refuses those above.
func mixedROMTol(t *testing.T, p Platform, rcs []RunConfig) float64 {
	t.Helper()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp.MeasureBatch(rcs, 0, 1) // capture every trace
	r, err := cp.net.ROM()
	if err != nil {
		t.Fatal(err)
	}
	var bounds []float64
	for _, rc := range rcs {
		a, ok := cp.traceAddr(rc)
		tr := cp.traces.get(a)
		if !ok || tr == nil {
			continue
		}
		supply := p.Nominal()
		if rc.SupplyVolts > 0 {
			supply = rc.SupplyVolts
		}
		amps := tr.maxEnergy*1e-12/(p.Chip.CycleSeconds()*supply) + p.Power.LeakageAmps(p.Chip.Modules, supply)
		bounds = append(bounds, r.ErrPerAmpV()*amps)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	k := len(bounds) / 2
	if k == 0 {
		t.Fatalf("slate error bounds %v cannot be split", bounds)
	}
	return (bounds[k-1] + bounds[k]) / 2
}

// checkBatchMatchesRun asserts MeasureBatch equals Run slot for slot on
// p across lane widths, worker counts and population orders, and
// returns the batch platform's counters.
func checkBatchMatchesRun(t *testing.T, p Platform, rcs []RunConfig) TraceStats {
	t.Helper()
	ref, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Measurement, len(rcs))
	wantErr := make([]error, len(rcs))
	for i, rc := range rcs {
		want[i], wantErr[i] = ref.Run(rc)
	}

	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			for pass := 0; pass < 2; pass++ {
				perm := rng.Perm(len(rcs))
				shuffled := make([]RunConfig, len(rcs))
				for to, from := range perm {
					shuffled[to] = rcs[from]
				}
				// Forget finished measurements (traces stay cached), so
				// every call replays every slot at this width instead of
				// serving the first call's results from the memo.
				cp.traces.mu.Lock()
				cp.traces.results, cp.traces.resultFifo = nil, nil
				cp.traces.mu.Unlock()
				ms, errs := cp.MeasureBatch(shuffled, lanes, workers)
				for to, from := range perm {
					tag := fmt.Sprintf("lanes=%d workers=%d pass=%d slot=%d(rc %d)", lanes, workers, pass, to, from)
					if (errs[to] == nil) != (wantErr[from] == nil) {
						t.Fatalf("%s: err = %v, want %v", tag, errs[to], wantErr[from])
					}
					if errs[to] != nil {
						continue
					}
					if !reflect.DeepEqual(ms[to], want[from]) {
						t.Fatalf("%s: batched measurement differs from serial:\n got %+v\nwant %+v", tag, ms[to], want[from])
					}
				}
			}
		}
	}
	return cp.TraceStats()
}

// TestMeasureBatchSharesCaptures: N candidates over K distinct programs
// must build exactly K traces, and the lane kernel must see every
// replay.
func TestMeasureBatchSharesCaptures(t *testing.T) {
	p := Bulldozer()
	base := resonancePeriodCycles(p)
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 3
	var rcs []RunConfig
	for i := 0; i < distinct; i++ {
		threads, err := SpreadPlacement(p.Chip, mulLoop(fmt.Sprintf("cap%d", i), base+i), 4)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			rcs = append(rcs, RunConfig{
				Threads:      threads,
				MaxCycles:    10000,
				WarmupCycles: 500,
				SupplyVolts:  p.Nominal() - 0.02*float64(s+1), // distinct memo keys
			})
		}
	}
	ms, errs := cp.MeasureBatch(rcs, 8, 4)
	for i := range rcs {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if ms[i] == nil {
			t.Fatalf("slot %d: nil measurement", i)
		}
	}
	st := cp.TraceStats()
	if st.Misses != distinct {
		t.Errorf("trace builds = %d, want %d (capture sharing broken)", st.Misses, distinct)
	}
	if st.Hits != uint64(len(rcs)-distinct) {
		t.Errorf("trace hits = %d, want %d", st.Hits, len(rcs)-distinct)
	}
	if st.LaneRuns != uint64(len(rcs)) {
		t.Errorf("lane runs = %d, want %d (every slot is memoable)", st.LaneRuns, len(rcs))
	}
	// 12 lane jobs at width 8 → one full pass and one 4-lane pass.
	if st.LaneBatches != 2 {
		t.Errorf("lane batches = %d, want 2", st.LaneBatches)
	}
}

// TestMeasureBatchWholeGroupPasses: 24 exact lanes over 4 workers are
// three full fused-kernel groups, so the automatic width runs them as
// three 8-lane passes, not four of 6 (⌈jobs/workers⌉), which would pay
// four group calls. Every slot still equals Run bit for bit.
func TestMeasureBatchWholeGroupPasses(t *testing.T) {
	p := Bulldozer()
	base := resonancePeriodCycles(p)
	rcs := make([]RunConfig, 24)
	for i := range rcs {
		rcs[i] = RunConfig{
			Threads:      []ThreadSpec{{Program: mulLoop(fmt.Sprintf("group%d", i), base+i), Module: 0, Core: 0}},
			MaxCycles:    3000 + 100*uint64(i),
			WarmupCycles: 500,
		}
	}
	ref, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ms, errs := cp.MeasureBatch(rcs, 0, 4)
	for i, rc := range rcs {
		want, err := ref.Run(rc)
		if err != nil || errs[i] != nil {
			t.Fatalf("slot %d: batch err %v, Run err %v", i, errs[i], err)
		}
		if !reflect.DeepEqual(ms[i], want) {
			t.Fatalf("slot %d: batched measurement differs from Run:\n got %+v\nwant %+v", i, ms[i], want)
		}
	}
	if st := cp.TraceStats(); st.LaneBatches != 3 || st.LaneRuns != 24 || st.ExactReplays != 24 {
		t.Errorf("lane batches/runs/exact = %d/%d/%d, want 3/24/24", st.LaneBatches, st.LaneRuns, st.ExactReplays)
	}
}
