package ga

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// runCollectingCheckpoints runs the toy search, keeping every emitted
// checkpoint (JSON round-tripped, as a real sink would store them).
func runCollectingCheckpoints(t *testing.T, cfg Config, ops Ops[bits], eval func(bits) (float64, error)) (*Result[bits], []*Checkpoint[bits]) {
	t.Helper()
	var cks []*Checkpoint[bits]
	sink := func(ck *Checkpoint[bits]) error {
		blob, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		var back Checkpoint[bits]
		if err := json.Unmarshal(blob, &back); err != nil {
			return err
		}
		cks = append(cks, &back)
		return nil
	}
	res, err := RunCheckpointed(context.Background(), cfg, ops, nil, eval, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	return res, cks
}

func sameResult[G any](a, b *Result[G]) bool {
	return reflect.DeepEqual(a.Best, b.Best) &&
		a.BestFitness == b.BestFitness &&
		a.Generations == b.Generations &&
		reflect.DeepEqual(a.History, b.History) &&
		reflect.DeepEqual(a.Population, b.Population) &&
		reflect.DeepEqual(a.Fitnesses, b.Fitnesses)
}

func TestResumeFromEveryGenerationIsBitIdentical(t *testing.T) {
	cfg := defaultCfg()
	cfg.MaxGenerations = 12
	full, cks := runCollectingCheckpoints(t, cfg, bitOps(20), onemax)
	if len(cks) != cfg.MaxGenerations+1 { // initial + one per generation
		t.Fatalf("got %d checkpoints, want %d", len(cks), cfg.MaxGenerations+1)
	}
	// Resuming from any snapshot — including the initial-population one
	// — must replay to the exact same final state.
	for i, ck := range cks {
		resumed, err := RunCheckpointed(context.Background(), cfg, bitOps(20), nil, onemax, ck, nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		if !sameResult(full, resumed) {
			t.Fatalf("resume from generation %d diverged: best %v vs %v, gens %d vs %d",
				ck.Gen, full.BestFitness, resumed.BestFitness, full.Generations, resumed.Generations)
		}
	}
}

func TestResumeWithMemoizationReplaysCache(t *testing.T) {
	cfg := defaultCfg()
	cfg.MaxGenerations = 10
	var calls atomic.Int64
	counting := func(g bits) (float64, error) {
		calls.Add(1)
		return onemax(g)
	}
	full, cks := runCollectingCheckpoints(t, cfg, memoOps(16), counting)
	fullCalls := calls.Load()

	mid := cks[len(cks)/2]
	calls.Store(0)
	resumed, err := RunCheckpointed(context.Background(), cfg, memoOps(16), nil, counting, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(full, resumed) {
		t.Fatal("memoized resume diverged from uninterrupted run")
	}
	// Cumulative accounting carries across the resume...
	if resumed.Evaluations != full.Evaluations {
		t.Errorf("resumed evaluations %d != full %d", resumed.Evaluations, full.Evaluations)
	}
	// ...but the resumed process only actually re-ran the back half.
	if replayed := calls.Load(); replayed >= fullCalls {
		t.Errorf("resume re-evaluated everything: %d calls vs %d for the full run", replayed, fullCalls)
	}
}

func TestResumeMatchesUnderParallelism(t *testing.T) {
	cfg := defaultCfg()
	cfg.MaxGenerations = 8
	cfg.Parallel = 4
	full, cks := runCollectingCheckpoints(t, cfg, memoOps(16), onemax)
	resumed, err := RunCheckpointed(context.Background(), cfg, memoOps(16), nil, onemax, cks[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(full, resumed) {
		t.Fatal("parallel resume diverged")
	}
}

func TestResumeAfterStagnationExit(t *testing.T) {
	cfg := defaultCfg()
	cfg.StagnantLimit = 3
	cfg.MaxGenerations = 1000
	full, cks := runCollectingCheckpoints(t, cfg, bitOps(8), func(bits) (float64, error) { return 1, nil })
	if full.Generations != 3 {
		t.Fatalf("stagnation exit after %d generations, want 3", full.Generations)
	}
	resumed, err := RunCheckpointed(context.Background(), cfg, bitOps(8), nil,
		func(bits) (float64, error) { return 1, nil }, cks[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generations != full.Generations {
		t.Errorf("resumed run exited after %d generations, full run after %d",
			resumed.Generations, full.Generations)
	}
}

func TestCheckpointSinkErrorAborts(t *testing.T) {
	sinkErr := errors.New("disk full")
	_, err := RunCheckpointed(context.Background(), defaultCfg(), bitOps(8), nil, onemax, nil,
		func(*Checkpoint[bits]) error { return sinkErr })
	if !errors.Is(err, sinkErr) {
		t.Fatalf("sink failure not propagated: %v", err)
	}
}

func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	// The search breeds from a resumed population of exactly PopSize
	// scored genomes: any other is refused, not bred from.
	cfg := defaultCfg()
	rng := rand.New(rand.NewSource(1))
	for _, n := range [][2]int{{3, 2}, {1, 1}, {cfg.PopSize - 1, cfg.PopSize - 1}, {cfg.PopSize + 1, cfg.PopSize + 1}} {
		bad := &Checkpoint[bits]{Population: make([]bits, n[0]), Fitnesses: make([]float64, n[1])}
		for i := range bad.Population {
			bad.Population[i] = bitOps(8).Random(rng)
		}
		bad.Best = bad.Population[0]
		if _, err := RunCheckpointed(context.Background(), cfg, bitOps(8), nil, onemax, bad, nil); err == nil {
			t.Errorf("a checkpoint of %d genomes and %d fitnesses resumed a search of %d", n[0], n[1], cfg.PopSize)
		}
	}
}

// TestEmittedCheckpointsFit: every checkpoint the engine emits, with
// and without elites (without them the best-so-far can leave the
// population), passes Fits after a JSON round trip, and each of its
// scores, made to contradict the others, is refused.
func TestEmittedCheckpointsFit(t *testing.T) {
	for _, elites := range []int{0, 2} {
		cfg := defaultCfg()
		cfg.Elites, cfg.MaxGenerations = elites, 12
		_, cks := runCollectingCheckpoints(t, cfg, bitOps(20), onemax)
		for _, ck := range cks {
			if err := ck.Fits(cfg); err != nil {
				t.Errorf("elites %d, generation %d: %v", elites, ck.Gen, err)
			}
		}
		last := cks[len(cks)-1]
		for _, damage := range []struct {
			name string
			edit func(ck *Checkpoint[bits])
		}{
			{"fitnesses reversed", func(ck *Checkpoint[bits]) { slices.Reverse(ck.Fitnesses) }},
			{"best below the population's", func(ck *Checkpoint[bits]) { ck.BestFitness = ck.Fitnesses[0] - 1 }},
			{"best past its history", func(ck *Checkpoint[bits]) { ck.BestFitness++ }},
			{"history short", func(ck *Checkpoint[bits]) { ck.History = ck.History[1:] }},
			{"history falls", func(ck *Checkpoint[bits]) { ck.History[0] = ck.History[len(ck.History)-1] + 1 }},
		} {
			ck := *last
			ck.Fitnesses = slices.Clone(last.Fitnesses)
			ck.History = slices.Clone(last.History)
			damage.edit(&ck)
			if err := ck.Fits(cfg); err == nil {
				t.Errorf("elites %d: a checkpoint with its %s fits", elites, damage.name)
			}
		}
	}
}

func TestCountingSourcePassthrough(t *testing.T) {
	// The counting wrapper must not change the stream rand.New produces.
	a := newCountingSource(42)
	b := newCountingSource(42)
	ra, rb := rand.New(a), rand.New(b)
	for i := 0; i < 100; i++ {
		if ra.Float64() != rb.Float64() || ra.Intn(1000) != rb.Intn(1000) {
			t.Fatal("counting sources diverged from each other")
		}
	}
	// Fast-forwarding a fresh source to a's position resynchronises.
	c := newCountingSource(42)
	if err := c.fastForward(context.Background(), a.draws()); err != nil {
		t.Fatal(err)
	}
	rc := rand.New(c)
	if ra.Float64() != rc.Float64() {
		t.Fatal("fast-forwarded source out of position")
	}
}

// TestResumeReplayStopsOnCancel resumes a checkpoint whose RNG position
// would take years to replay: cancelling the search's context must stop
// the replay promptly, with the context's error.
func TestResumeReplayStopsOnCancel(t *testing.T) {
	cfg := Config{PopSize: 4, Elites: 1, TournamentK: 2, MutationProb: 0.5, MaxGenerations: 3, Seed: 1}
	ck := &Checkpoint[uint8]{Gen: 1, RNGDraws: 1e15,
		Population: make([]uint8, 4), Fitnesses: make([]float64, 4), History: []float64{0}}
	ops := Ops[uint8]{
		Random:    func(r *rand.Rand) uint8 { return uint8(r.Intn(256)) },
		Crossover: func(_ *rand.Rand, a, _ uint8) uint8 { return a },
		Mutate:    func(r *rand.Rand, g uint8) uint8 { return g ^ uint8(r.Intn(256)) },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunCheckpointed(ctx, cfg, ops, nil, func(g uint8) (float64, error) { return float64(g), nil }, ck, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("resume returned %v, want the context's deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("resume kept replaying the RNG 10 s after its context was cancelled")
	}
}

// TestDrawsFit refuses an RNG position no search of the configuration
// can reach by the checkpoint's generation, and accepts the position a
// real search reached.
func TestDrawsFit(t *testing.T) {
	cfg := Config{PopSize: 6, Elites: 1, TournamentK: 3, MutationProb: 0.3, MaxGenerations: 4, Seed: 9}
	var last *Checkpoint[uint8]
	ops := Ops[uint8]{
		Random:    func(r *rand.Rand) uint8 { return uint8(r.Intn(256)) },
		Crossover: func(r *rand.Rand, a, b uint8) uint8 { return a&0xf0 | b&0x0f ^ uint8(r.Intn(2)) },
		Mutate:    func(r *rand.Rand, g uint8) uint8 { return g ^ 1<<uint(r.Intn(8)) },
	}
	if _, err := RunCheckpointed(context.Background(), cfg, ops, nil, func(g uint8) (float64, error) { return float64(g), nil }, nil,
		func(ck *Checkpoint[uint8]) error { last = ck; return nil }); err != nil {
		t.Fatal(err)
	}
	const perGenome = 2 // Crossover and Mutate draw one value each
	if err := last.DrawsFit(cfg, perGenome); err != nil {
		t.Fatalf("a real checkpoint (gen %d, %d draws) refused: %v", last.Gen, last.RNGDraws, err)
	}
	for _, bad := range []struct {
		gen   int
		draws uint64
	}{{last.Gen, 1e15}, {0, 1000}, {-1, 0}} {
		ck := *last
		ck.Gen, ck.RNGDraws = bad.gen, bad.draws
		if err := ck.DrawsFit(cfg, perGenome); err == nil {
			t.Errorf("gen %d at %d draws accepted", bad.gen, bad.draws)
		}
	}
}
