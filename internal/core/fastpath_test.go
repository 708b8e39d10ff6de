package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/testbed"
)

// TestGenerateParallelMatchesSerial runs the full AUDIT flow — real
// simulator fitness through the compiled platform — serial and with 8
// parallel workers, and requires identical search trajectories. This is
// the end-to-end version of the ga-level determinism test; run it under
// -race to exercise the pooled chip/PDN state concurrently.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	p := testbed.Bulldozer()
	gen := func(workers int) *Stressmark {
		cfg := smallGA(7)
		cfg.Parallel = workers
		sm, err := Generate(context.Background(), Options{
			Platform:      p,
			LoopCycles:    36,
			GA:            cfg,
			MeasureCycles: 2000,
			WarmupCycles:  1200,
			Seed:          7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	serial := gen(0)
	parallel := gen(8)
	if serial.DroopV != parallel.DroopV {
		t.Errorf("droop diverged: %v vs %v", serial.DroopV, parallel.DroopV)
	}
	if serial.Search.Evaluations != parallel.Search.Evaluations ||
		serial.Search.CacheHits != parallel.Search.CacheHits ||
		serial.Search.CacheMisses != parallel.Search.CacheMisses {
		t.Errorf("search accounting diverged: evals %d/%d hits %d/%d misses %d/%d",
			serial.Search.Evaluations, parallel.Search.Evaluations,
			serial.Search.CacheHits, parallel.Search.CacheHits,
			serial.Search.CacheMisses, parallel.Search.CacheMisses)
	}
	if !reflect.DeepEqual(serial.Search.History, parallel.Search.History) {
		t.Errorf("history diverged:\n serial   %v\n parallel %v",
			serial.Search.History, parallel.Search.History)
	}
	if !reflect.DeepEqual(serial.Genome, parallel.Genome) {
		t.Error("winning genomes diverged")
	}
}

// TestGenerateMemoizationAccounting: the real GA loop over genomes must
// report coherent cache counters, and elitism's re-scored duplicates
// mean a multi-generation run should see at least one hit.
func TestGenerateMemoizationAccounting(t *testing.T) {
	p := testbed.Bulldozer()
	cfg := smallGA(3)
	cfg.MaxGenerations = 5
	cfg.MutationProb = 0.2 // low churn → crossover reproduces parents often
	sm, err := Generate(context.Background(), Options{
		Platform:      p,
		LoopCycles:    36,
		GA:            cfg,
		MeasureCycles: 1500,
		WarmupCycles:  1000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sm.Search
	if res.CacheMisses != res.Evaluations {
		t.Errorf("CacheMisses %d != Evaluations %d", res.CacheMisses, res.Evaluations)
	}
	total := cfg.PopSize + res.Generations*(cfg.PopSize-cfg.Elites)
	if res.CacheHits+res.CacheMisses != total {
		t.Errorf("hits+misses = %d, want %d scored candidates",
			res.CacheHits+res.CacheMisses, total)
	}
	if res.CacheHits == 0 {
		t.Log("no duplicate candidates this run (legal, but memoization went unexercised)")
	}
}

// TestGenerateSharedTraceCache: with Repeats > 1 every scored candidate
// is measured K times on the same RunConfig, so repeats 2..K must hit
// the compiled platform's trace cache; 8 parallel workers share one
// cache (run under -race). WrapRunner doubles as the capture hook for
// the underlying CompiledPlatform.
func TestGenerateSharedTraceCache(t *testing.T) {
	p := testbed.Bulldozer()
	cfg := smallGA(13)
	cfg.Parallel = 8
	cfg.Repeats = 3
	var cp *testbed.CompiledPlatform
	sm, err := Generate(context.Background(), Options{
		Platform:      p,
		LoopCycles:    36,
		GA:            cfg,
		MeasureCycles: 2000,
		WarmupCycles:  1200,
		Seed:          13,
		WrapRunner: func(r testbed.Runner) testbed.Runner {
			cp = r.(*testbed.CompiledPlatform)
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.TraceStats()
	res := sm.Search
	if ts.Misses == 0 {
		t.Fatal("no trace-cache misses: fast path never engaged")
	}
	// Distinct genomes have distinct trace addresses, and fitness
	// memoization keeps duplicate genomes from reaching Run, so trace
	// misses cannot exceed fitness misses...
	if ts.Misses > uint64(res.CacheMisses) {
		t.Errorf("trace misses %d > fitness misses %d", ts.Misses, res.CacheMisses)
	}
	// ...and each fitness evaluation's repeats 2 and 3 replay the trace
	// recorded (or found) by repeat 1.
	if want := 2 * uint64(res.CacheMisses); ts.Hits < want {
		t.Errorf("trace hits %d < %d: repeats are not sharing traces", ts.Hits, want)
	}
}

// TestGenomeFingerprint pins the fingerprint's canonicality: equal
// content → equal key, any field change → different key.
func TestGenomeFingerprint(t *testing.T) {
	g := Genome{Slots: []Slot{{Op: 3, A: 1, B: 2, C: 3}, {Op: -1}}, S: 4, LPCycles: 9}
	if g.Fingerprint() != g.Clone().Fingerprint() {
		t.Error("clone fingerprint differs")
	}
	mutants := []Genome{
		{Slots: []Slot{{Op: 3, A: 1, B: 2, C: 3}, {Op: -1}}, S: 5, LPCycles: 9},
		{Slots: []Slot{{Op: 3, A: 1, B: 2, C: 3}, {Op: -1}}, S: 4, LPCycles: 8},
		{Slots: []Slot{{Op: 3, A: 1, B: 2, C: 4}, {Op: -1}}, S: 4, LPCycles: 9},
		{Slots: []Slot{{Op: 2, A: 1, B: 2, C: 3}, {Op: -1}}, S: 4, LPCycles: 9},
		{Slots: []Slot{{Op: 3, A: 1, B: 2, C: 3}}, S: 4, LPCycles: 9},
	}
	for i, m := range mutants {
		if m.Fingerprint() == g.Fingerprint() {
			t.Errorf("mutant %d shares the original's fingerprint", i)
		}
	}
	h := HeteroGenome{PerThread: []Genome{g, g}}
	if h.Fingerprint() != h.Clone().Fingerprint() {
		t.Error("hetero clone fingerprint differs")
	}
	h2 := HeteroGenome{PerThread: []Genome{g, mutants[0]}}
	if h2.Fingerprint() == h.Fingerprint() {
		t.Error("different hetero genomes share a fingerprint")
	}
}
