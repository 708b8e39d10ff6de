package ga

import (
	"context"
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Checkpoint is the complete state of a search between generations:
// everything RunCheckpointed needs to continue bit-identically — the
// sorted population with its scores, the best-so-far, the RNG draw
// count (the seeded source is replayed to this position on resume),
// the fitness-memoization cache, and the accounting counters. It
// marshals cleanly to JSON when G does (cache keys are base64-wrapped
// because fingerprints are binary).
type Checkpoint[G any] struct {
	// Gen is the next generation to run (0 = only the initial
	// population has been scored).
	Gen int `json:"gen"`
	// RNGDraws is how many values the seeded source had produced.
	RNGDraws uint64 `json:"rng_draws"`
	// Stagnant is the no-improvement streak at snapshot time.
	Stagnant int `json:"stagnant"`
	// Population and Fitnesses are the scored population, best first.
	Population []G       `json:"population"`
	Fitnesses  []float64 `json:"fitnesses"`
	// Best and BestFitness are the best-so-far across the whole run.
	Best        G       `json:"best"`
	BestFitness float64 `json:"best_fitness"`
	// History is the per-generation best-so-far trajectory.
	History []float64 `json:"history,omitempty"`
	// Counters carried across the interruption.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	Retries     int `json:"retries"`
	TimedOut    int `json:"timed_out"`
	Degraded    int `json:"degraded"`
	// Cache is the fitness-memoization map, keys base64-encoded.
	Cache []CacheEntry `json:"cache,omitempty"`
}

// CacheEntry is one memoized fitness, with its fingerprint key
// base64-encoded so the binary bytes survive JSON.
type CacheEntry struct {
	Key string  `json:"k"`
	Fit float64 `json:"v"`
}

// snapshot captures the live search state. It deliberately aliases the
// population slice contents (genomes are treated as immutable by the
// engine), but builds fresh slices so later generations cannot mutate
// an emitted checkpoint.
func snapshot[G any](gen, stagnant int, pop []scored[G], res *Result[G], cache map[string]float64, draws uint64) *Checkpoint[G] {
	ck := &Checkpoint[G]{
		Gen:         gen,
		RNGDraws:    draws,
		Stagnant:    stagnant,
		Population:  make([]G, len(pop)),
		Fitnesses:   make([]float64, len(pop)),
		Best:        res.Best,
		BestFitness: res.BestFitness,
		History:     append([]float64(nil), res.History...),
		Evaluations: res.Evaluations,
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		Retries:     res.Retries,
		TimedOut:    res.TimedOut,
		Degraded:    res.Degraded,
	}
	for i, s := range pop {
		ck.Population[i] = s.g
		ck.Fitnesses[i] = s.fit
	}
	if cache != nil {
		ck.Cache = make([]CacheEntry, 0, len(cache))
		for k, v := range cache {
			ck.Cache = append(ck.Cache, CacheEntry{Key: base64.StdEncoding.EncodeToString([]byte(k)), Fit: v})
		}
		// Canonical order: map iteration is randomized, and a checkpoint
		// must serialize to the same bytes for the same search state so
		// independently produced checkpoints (serial vs distributed runs,
		// say) can be compared by fingerprint.
		sort.Slice(ck.Cache, func(i, j int) bool { return ck.Cache[i].Key < ck.Cache[j].Key })
	}
	return ck
}

// Fits reports why ck cannot resume a search of cfg, or nil: its
// population must be the PopSize scored genomes the search breeds from,
// best first, and its scores must agree as the engine keeps them:
// BestFitness no lower than the population's best, and History one
// best-so-far per generation run, never falling and ending at
// BestFitness.
func (ck *Checkpoint[G]) Fits(cfg Config) error {
	if len(ck.Population) != cfg.PopSize || len(ck.Fitnesses) != cfg.PopSize {
		return fmt.Errorf("ga: resume: checkpoint has %d genomes and %d fitnesses; this search breeds %d",
			len(ck.Population), len(ck.Fitnesses), cfg.PopSize)
	}
	fs, h := ck.Fitnesses, ck.History
	for i := 1; i < len(fs); i++ {
		if fs[i] > fs[i-1] {
			return fmt.Errorf("ga: resume: checkpoint's fitnesses are not best first (%v at %d after %v)", fs[i], i, fs[i-1])
		}
	}
	if len(fs) > 0 && ck.BestFitness < fs[0] {
		return fmt.Errorf("ga: resume: checkpoint's best fitness %v lies below its population's best %v", ck.BestFitness, fs[0])
	}
	if len(h) != ck.Gen {
		return fmt.Errorf("ga: resume: checkpoint of generation %d holds a history of %d generations", ck.Gen, len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			return fmt.Errorf("ga: resume: checkpoint's best-so-far history falls at generation %d (%v after %v)", i+1, h[i], h[i-1])
		}
	}
	if len(h) > 0 && h[len(h)-1] != ck.BestFitness {
		return fmt.Errorf("ga: resume: checkpoint's best fitness %v is not its history's last %v", ck.BestFitness, h[len(h)-1])
	}
	return nil
}

// DrawsFit reports why ck's RNG position lies past what a search of cfg
// can have drawn by the end of generation ck.Gen, or nil. perGenome
// bounds the values one genome's Random, or one child's Crossover and
// Mutate together, draw. A resume replays the source to that position
// one draw at a time, so a corrupt count would otherwise spin for as
// long as it says.
func (ck *Checkpoint[G]) DrawsFit(cfg Config, perGenome uint64) error {
	if ck.Gen < 0 {
		return fmt.Errorf("ga: resume: checkpoint generation %d is negative", ck.Gen)
	}
	if max := cfg.maxDraws(ck.Gen, perGenome); ck.RNGDraws > max {
		return fmt.Errorf("ga: resume: checkpoint's RNG position %d lies past the %d draws %d generations can make",
			ck.RNGDraws, max, ck.Gen)
	}
	return nil
}

// maxDraws bounds the values a search of cfg draws from its source by
// the end of generation gen: PopSize genomes' Random for the initial
// population, then per child two tournaments of TournamentK picks, its
// Crossover and Mutate, and the mutation coin. Each Intn or Float64
// call takes one draw except for a rejection (math/rand) whose odds
// are below 2^-24 at these ranges, so the count is doubled. It
// saturates instead of overflowing.
func (c Config) maxDraws(gen int, perGenome uint64) uint64 {
	mul := func(a, b uint64) uint64 {
		if a != 0 && b > math.MaxUint64/a {
			return math.MaxUint64
		}
		return a * b
	}
	add := func(a, b uint64) uint64 {
		if b > math.MaxUint64-a {
			return math.MaxUint64
		}
		return a + b
	}
	child := add(add(mul(2, uint64(c.TournamentK)), perGenome), 1)
	n := add(mul(uint64(c.PopSize), perGenome), mul(mul(uint64(gen), uint64(c.PopSize-c.Elites)), child))
	return mul(2, n)
}

// restore rebuilds the search state from a checkpoint that Fits cfg:
// population, result counters, fitness cache, and the RNG position. A
// cancelled ctx stops the RNG replay.
func restore[G any](ctx context.Context, ck *Checkpoint[G], cfg Config, res *Result[G], cache map[string]float64, src *countingSource) ([]scored[G], int, int, error) {
	if err := ck.Fits(cfg); err != nil {
		return nil, 0, 0, err
	}
	pop := make([]scored[G], len(ck.Population))
	for i := range ck.Population {
		pop[i] = scored[G]{g: ck.Population[i], fit: ck.Fitnesses[i]}
	}
	res.Best, res.BestFitness = ck.Best, ck.BestFitness
	res.Generations = ck.Gen
	res.History = append([]float64(nil), ck.History...)
	res.Evaluations = ck.Evaluations
	res.CacheHits, res.CacheMisses = ck.CacheHits, ck.CacheMisses
	res.Retries, res.TimedOut, res.Degraded = ck.Retries, ck.TimedOut, ck.Degraded
	if cache != nil {
		for _, e := range ck.Cache {
			raw, err := base64.StdEncoding.DecodeString(e.Key)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("ga: resume: bad cache key: %w", err)
			}
			cache[string(raw)] = e.Fit
		}
	}
	if err := src.fastForward(ctx, ck.RNGDraws); err != nil {
		return nil, 0, 0, err
	}
	return pop, ck.Gen, ck.Stagnant, nil
}

// countingSource wraps the stdlib seeded source and counts draws, so a
// checkpoint can record the RNG position and a resume can replay the
// source to exactly that point. Values pass through untouched: runs
// with and without counting are bit-identical.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	src := rand.NewSource(seed)
	s64, ok := src.(rand.Source64)
	if !ok {
		// rand.NewSource has returned a Source64 since Go 1.8; this
		// fallback only matters if that ever changes.
		s64 = &source64Shim{src}
	}
	return &countingSource{src: s64}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

func (s *countingSource) draws() uint64 { return s.n }

// fastForward advances the underlying source by n draws. Int63 and
// Uint64 step the stdlib generator identically, so replaying with
// either reproduces the stream position. It checks ctx every
// fastForwardCheck draws and returns ctx.Err() once it is cancelled.
func (s *countingSource) fastForward(ctx context.Context, n uint64) error {
	for i := uint64(0); i < n; i++ {
		if i%fastForwardCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.src.Uint64()
	}
	s.n = n
	return nil
}

// fastForwardCheck is how many draws fastForward makes between looks
// at its context: a few milliseconds.
const fastForwardCheck = 1 << 20

type source64Shim struct{ rand.Source }

func (s *source64Shim) Uint64() uint64 {
	return uint64(s.Int63())>>31 | uint64(s.Int63())<<32
}
