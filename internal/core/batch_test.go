package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/testbed"
)

// perCandidate hides the compiled platform's batch interface, so the
// GA scores candidates one Run at a time, as it does behind a runner
// that cannot batch (a fault injector).
func perCandidate(r testbed.Runner) testbed.Runner { return struct{ testbed.Runner }{r} }

// TestGenerateBatchedMatchesPerCandidate: the generation-batched
// pipeline (default) and the per-candidate path must produce identical
// searches — same droop, same winning genome, same trajectory and
// evaluation accounting — across worker counts. The pipeline picks its
// own lane width; testbed's checkBatchMatchesRun shows at fixed widths
// that the width never moves a measurement. Run under -race in CI.
func TestGenerateBatchedMatchesPerCandidate(t *testing.T) {
	p := testbed.Bulldozer()
	gen := func(workers int, wrap func(testbed.Runner) testbed.Runner) *Stressmark {
		cfg := smallGA(11)
		cfg.Parallel = workers
		sm, err := Generate(context.Background(), Options{
			Platform:      p,
			LoopCycles:    36,
			GA:            cfg,
			MeasureCycles: 2000,
			WarmupCycles:  1200,
			Seed:          11,
			WrapRunner:    wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	want := gen(0, perCandidate) // per-candidate reference
	for _, workers := range []int{0, 4} {
		got := gen(workers, nil)
		if got.DroopV != want.DroopV {
			t.Errorf("workers=%d: droop %v != %v", workers, got.DroopV, want.DroopV)
		}
		if !reflect.DeepEqual(got.Genome, want.Genome) {
			t.Errorf("workers=%d: winning genome diverged", workers)
		}
		if !reflect.DeepEqual(got.Search.History, want.Search.History) {
			t.Errorf("workers=%d: history diverged:\n got %v\nwant %v",
				workers, got.Search.History, want.Search.History)
		}
		if got.Search.Evaluations != want.Search.Evaluations ||
			got.Search.CacheHits != want.Search.CacheHits {
			t.Errorf("workers=%d: accounting diverged: evals %d/%d hits %d/%d",
				workers, got.Search.Evaluations, want.Search.Evaluations,
				got.Search.CacheHits, want.Search.CacheHits)
		}
		if got.TraceStats.BatchRuns == 0 {
			t.Errorf("workers=%d: batch pipeline never engaged", workers)
		}
	}
	if want.TraceStats.BatchRuns != 0 {
		t.Errorf("per-candidate runner still entered the batch pipeline (%d runs)", want.TraceStats.BatchRuns)
	}
}

// TestGenerateHeteroBatchedMatches: same property for heterogeneous
// generation.
func TestGenerateHeteroBatchedMatches(t *testing.T) {
	p := testbed.Bulldozer()
	gen := func(wrap func(testbed.Runner) testbed.Runner) *HeteroStressmark {
		cfg := smallGA(5)
		cfg.Parallel = 4
		sm, err := GenerateHetero(context.Background(), Options{
			Platform:      p,
			LoopCycles:    36,
			Threads:       2,
			GA:            cfg,
			MeasureCycles: 2000,
			WarmupCycles:  1200,
			Seed:          5,
			WrapRunner:    wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	want := gen(perCandidate)
	got := gen(nil)
	if got.DroopV != want.DroopV || !reflect.DeepEqual(got.Genome, want.Genome) {
		t.Error("hetero batched search diverged from per-candidate")
	}
	if !reflect.DeepEqual(got.Search.History, want.Search.History) {
		t.Errorf("hetero history diverged:\n got %v\nwant %v", got.Search.History, want.Search.History)
	}
	if got.TraceStats.BatchRuns == 0 {
		t.Error("hetero batch pipeline never engaged")
	}
}
