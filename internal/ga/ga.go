// Package ga is the genetic-algorithm engine at the heart of AUDIT's
// search (Fig. 5): a population of candidate stressmarks is evaluated
// against a cost function (measured voltage droop), and tournament
// selection, crossover and mutation refine it until the exit condition
// — no improvement for several generations — is met. The engine is
// generic so the same machinery drives flat opcode-sequence genomes,
// hierarchical sub-block genomes (§3.C) and test toys alike.
//
// Hardware campaigns are long (the paper's runs took 5–30 hours) and
// their measurements are faulty, so the engine carries the lab-grade
// machinery a real campaign needs: per-evaluation retry with capped
// backoff on transient faults, median-of-K repeated measurement with
// outlier rejection, per-evaluation timeouts, cooperative cancellation
// via context.Context, graceful degradation of genomes that keep
// failing, and bit-identical generation-level checkpoint/resume.
package ga

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Ops supplies the genome-specific operators.
type Ops[G any] struct {
	// Random creates a new random genome.
	Random func(rng *rand.Rand) G
	// Crossover combines two parents into a child.
	Crossover func(rng *rand.Rand, a, b G) G
	// Mutate returns a (possibly) modified copy of g.
	Mutate func(rng *rand.Rand, g G) G
	// Fingerprint, when non-nil, enables fitness memoization: it must
	// return a canonical content key — equal genomes (same phenotype)
	// must map to equal keys, different genomes to different keys. A
	// candidate whose key has been scored before reuses that score
	// instead of re-running the simulator, so duplicates produced by
	// crossover/mutation across generations cost zero evaluations.
	Fingerprint func(G) string
	// EvalGeneration, when non-nil, scores a whole generation in one
	// call instead of fanning the per-genome eval across workers; the
	// testbed's generation-batched pipeline (capture sharing, multi-lane
	// replay) and the distributed coordinator plug in here. It must
	// return slot-aligned fitnesses and errors with
	// EvalGeneration(ctx, gs)[i] ≡ eval(gs[i]) — the per-genome eval is
	// still required and still runs the retry/repeat policy: the batch
	// call provides each candidate's first attempt, and candidates that
	// need more (transient failures to retry, Repeats-1 further samples)
	// finish through the serial path. ctx is the search context: a batch
	// evaluator that can stop early on cancellation (a remote dispatch
	// waiting on workers, say) should honour it; EvalTimeout cannot
	// bound the monolithic batch call, only the follow-ups.
	EvalGeneration func(ctx context.Context, gs []G) ([]float64, []error)
}

// Config controls the search.
type Config struct {
	// PopSize is the population size.
	PopSize int
	// Elites survive unchanged each generation.
	Elites int
	// TournamentK is the tournament size for parent selection.
	TournamentK int
	// MutationProb is the probability a child is mutated.
	MutationProb float64
	// MaxGenerations bounds the run.
	MaxGenerations int
	// Parallel evaluates fitness with this many concurrent workers
	// (0 or 1 = serial). Results are identical to a serial run: genome
	// creation stays sequential on the seeded RNG, and only the
	// independent fitness calls fan out — safe because every AUDIT
	// evaluation builds its own simulator instance.
	Parallel int
	// StagnantLimit exits early when the best fitness has not improved
	// for this many consecutive generations (the paper's exit
	// condition: "the maximum voltage droop produced by AUDIT does not
	// increase for several generations"). 0 disables the early exit.
	StagnantLimit int
	// Seed makes the run reproducible.
	Seed int64
	// NoMemoize disables fitness memoization even when Ops.Fingerprint
	// is set (useful for measuring raw evaluation cost).
	NoMemoize bool

	// MaxRetries is how many extra attempts an evaluation gets when it
	// fails with a transient error (one whose chain exposes a
	// `Transient() bool` method returning true, e.g. faults.ErrTransient,
	// or a per-evaluation timeout). 0 = fail on the first error.
	MaxRetries int
	// RetryBackoff is the wait before the first retry; it doubles per
	// retry, capped at RetryBackoffCap. Zero = retry immediately.
	RetryBackoff time.Duration
	// RetryBackoffCap bounds the exponential backoff (default: 1s when
	// RetryBackoff is set).
	RetryBackoffCap time.Duration
	// Repeats, when > 1, measures each candidate K times and scores it
	// with the outlier-rejected centre of the samples (median, then
	// mean of samples within 3 MADs) — the standard defence against
	// noisy scope captures. On a testbed.CompiledPlatform the K runs
	// share one cached chip trace, so repeats 2..K replay only the PDN
	// phase and cost far less than the first measurement.
	Repeats int
	// EvalTimeout bounds each evaluation attempt; an attempt that
	// exceeds it is abandoned and counts as a transient failure.
	// 0 disables the timeout.
	EvalTimeout time.Duration
	// DegradeFailures switches eval-failure policy from abort-the-search
	// to degrade-the-genome: a candidate whose evaluation still fails
	// after all retries scores WorstFitness instead of killing a
	// multi-hour run. Result.Degraded counts how often this happened.
	DegradeFailures bool
	// WorstFitness is the score a degraded genome receives
	// (default -math.MaxFloat64, which sorts last under maximisation).
	WorstFitness float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.PopSize < 2:
		return fmt.Errorf("ga: population must be ≥ 2")
	case c.Elites < 0 || c.Elites >= c.PopSize:
		return fmt.Errorf("ga: elites must be in [0, pop)")
	case c.TournamentK < 1 || c.TournamentK > c.PopSize:
		return fmt.Errorf("ga: tournament size must be in [1, pop]")
	case c.MutationProb < 0 || c.MutationProb > 1:
		return fmt.Errorf("ga: mutation probability outside [0,1]")
	case c.MaxGenerations < 1:
		return fmt.Errorf("ga: need at least one generation")
	case c.StagnantLimit < 0:
		return fmt.Errorf("ga: negative stagnant limit")
	case c.Parallel < 0:
		return fmt.Errorf("ga: negative parallelism")
	case c.MaxRetries < 0:
		return fmt.Errorf("ga: negative retry count")
	case c.RetryBackoff < 0 || c.RetryBackoffCap < 0:
		return fmt.Errorf("ga: negative retry backoff")
	case c.Repeats < 0:
		return fmt.Errorf("ga: negative repeat count")
	case c.EvalTimeout < 0:
		return fmt.Errorf("ga: negative eval timeout")
	}
	return nil
}

// Result reports the best genome found and the search's trajectory.
type Result[G any] struct {
	Best        G
	BestFitness float64
	// Population is the final population, best first — reusable as the
	// seeds of a follow-up run (checkpoint/resume).
	Population []G
	// Fitnesses holds the final population's scores, aligned with
	// Population.
	Fitnesses []float64
	// Generations actually executed.
	Generations int
	// Evaluations is the number of fitness calls actually made (the
	// budget measure used when comparing hierarchical vs flat
	// generation, §3.C). With memoization enabled, candidates served
	// from the cache are not counted here — see CacheHits.
	Evaluations int
	// CacheHits and CacheMisses report fitness-memoization traffic
	// (both zero when Ops.Fingerprint is nil or NoMemoize is set).
	// CacheMisses equals the evaluations spent on memoized batches.
	CacheHits   int
	CacheMisses int
	// Retries counts transient evaluation failures that were retried;
	// TimedOut is the per-attempt-timeout subset of those.
	Retries  int
	TimedOut int
	// Degraded counts candidates that exhausted their retries and were
	// assigned WorstFitness instead of aborting the search.
	Degraded int
	// History holds the best fitness after each generation.
	History []float64
}

type scored[G any] struct {
	g   G
	fit float64
}

// Run maximises eval over genomes. seeds, if any, are injected into the
// initial population (the paper: "the initial population ... can be
// generated randomly or seeded with existing benchmarks or stressmarks
// to improve the convergence rate"). Cancelling ctx stops the search
// promptly — between evaluations, backoff waits, and generations — and
// returns ctx.Err().
func Run[G any](ctx context.Context, cfg Config, ops Ops[G], seeds []G, eval func(G) (float64, error)) (*Result[G], error) {
	return RunCheckpointed(ctx, cfg, ops, seeds, eval, nil, nil)
}

// RunCheckpointed is Run with generation-level checkpoint/resume.
// After the initial population and after every generation, sink (when
// non-nil) receives a snapshot of the complete search state; resume
// (when non-nil) restores such a snapshot and continues the search
// exactly where it stopped. A resumed run is bit-identical to the
// uninterrupted one: the RNG is fast-forwarded to the recorded draw
// count, the population and fitness cache are restored, and the same
// deterministic evaluations replay (with memoization enabled, already-
// scored genomes are served from the restored cache).
func RunCheckpointed[G any](ctx context.Context, cfg Config, ops Ops[G], seeds []G, eval func(G) (float64, error), resume *Checkpoint[G], sink func(*Checkpoint[G]) error) (*Result[G], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ops.Random == nil || ops.Crossover == nil || ops.Mutate == nil {
		return nil, fmt.Errorf("ga: all three operators are required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	src := newCountingSource(cfg.Seed)
	rng := rand.New(src)

	res := &Result[G]{}
	fp := ops.Fingerprint
	if cfg.NoMemoize {
		fp = nil
	}
	var cache map[string]float64
	if fp != nil {
		cache = make(map[string]float64)
	}
	ev := newEvaluator(cfg, eval)
	rEval := func(g G) (float64, error) { return ev.evaluate(ctx, g) }
	// scoreUniq evaluates one deduplicated batch: through the
	// generation-level evaluator when the genome supplies one, else by
	// fanning the per-genome eval across the worker pool.
	scoreUniq := func(gs []G) ([]float64, error) {
		if ops.EvalGeneration != nil {
			return ev.evalGeneration(ctx, gs, ops.EvalGeneration, cfg.Parallel)
		}
		return evalBatch(ctx, gs, rEval, cfg.Parallel)
	}
	// score runs one batch through the cache (when enabled) and the
	// batch scorer, accounting evaluations and cache traffic.
	score := func(gs []G) ([]float64, error) {
		if fp == nil {
			fits, err := scoreUniq(gs)
			if err != nil {
				return nil, err
			}
			res.Evaluations += len(gs)
			return fits, nil
		}
		fits, hits, misses, err := evalMemo(gs, fp, cache, scoreUniq)
		if err != nil {
			return nil, err
		}
		res.CacheHits += hits
		res.CacheMisses += misses
		res.Evaluations += misses
		return fits, nil
	}

	var pop []scored[G]
	startGen, stagnant := 0, 0
	if resume != nil {
		var err error
		pop, startGen, stagnant, err = restore(ctx, resume, cfg, res, cache, src)
		if err != nil {
			return nil, err
		}
		ev.restore(res)
	} else {
		initial := make([]G, cfg.PopSize)
		for i := range initial {
			if i < len(seeds) {
				initial[i] = seeds[i]
			} else {
				initial[i] = ops.Random(rng)
			}
		}
		fits, err := score(initial)
		if err != nil {
			return nil, fmt.Errorf("ga: evaluating initial population: %w", err)
		}
		pop = make([]scored[G], cfg.PopSize)
		for i := range pop {
			pop[i] = scored[G]{g: initial[i], fit: fits[i]}
		}
		sortPop(pop)
		res.Best, res.BestFitness = pop[0].g, pop[0].fit
	}

	emit := func(gen int) error {
		if sink == nil {
			return nil
		}
		ev.drain(res)
		return sink(snapshot(gen, stagnant, pop, res, cache, src.draws()))
	}
	if resume == nil {
		if err := emit(0); err != nil {
			return nil, fmt.Errorf("ga: checkpointing initial population: %w", err)
		}
	}

	for gen := startGen; gen < cfg.MaxGenerations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make([]scored[G], 0, cfg.PopSize)
		next = append(next, pop[:cfg.Elites]...)
		children := make([]G, 0, cfg.PopSize-cfg.Elites)
		for len(next)+len(children) < cfg.PopSize {
			a := tournament(rng, pop, cfg.TournamentK)
			b := tournament(rng, pop, cfg.TournamentK)
			child := ops.Crossover(rng, a.g, b.g)
			if rng.Float64() < cfg.MutationProb {
				child = ops.Mutate(rng, child)
			}
			children = append(children, child)
		}
		fits, err := score(children)
		if err != nil {
			return nil, fmt.Errorf("ga: evaluating generation %d: %w", gen, err)
		}
		for i, child := range children {
			next = append(next, scored[G]{g: child, fit: fits[i]})
		}
		pop = next
		sortPop(pop)
		res.Generations = gen + 1
		if pop[0].fit > res.BestFitness {
			res.Best, res.BestFitness = pop[0].g, pop[0].fit
			stagnant = 0
		} else {
			stagnant++
		}
		res.History = append(res.History, res.BestFitness)
		if err := emit(gen + 1); err != nil {
			return nil, fmt.Errorf("ga: checkpointing generation %d: %w", gen, err)
		}
		if cfg.StagnantLimit > 0 && stagnant >= cfg.StagnantLimit {
			break
		}
	}
	ev.drain(res)
	for _, s := range pop {
		res.Population = append(res.Population, s.g)
		res.Fitnesses = append(res.Fitnesses, s.fit)
	}
	return res, nil
}

// evalMemo scores a batch through the fitness cache: genomes scored in
// an earlier generation (matched by fingerprint) reuse their score,
// duplicates within the batch are evaluated once, and only unique
// misses reach the batch scorer. All lookups and dedup happen on the
// calling goroutine before any fan-out, and the cache is written only
// after the batch completes, so parallel runs are race-free and
// bit-identical to serial ones: the same set of genomes is simulated
// either way.
func evalMemo[G any](gs []G, fp func(G) string, cache map[string]float64, scoreUniq func([]G) ([]float64, error)) (fits []float64, hits, misses int, err error) {
	fits = make([]float64, len(gs))
	keys := make([]string, len(gs))
	rep := make(map[string]int, len(gs)) // key → first occurrence in batch
	var uniq []G
	var uniqIdx []int
	var dups [][2]int // [duplicate index, representative index]
	for i, g := range gs {
		k := fp(g)
		keys[i] = k
		if fit, ok := cache[k]; ok {
			fits[i] = fit
			hits++
			continue
		}
		if j, ok := rep[k]; ok {
			dups = append(dups, [2]int{i, j})
			hits++
			continue
		}
		rep[k] = i
		uniq = append(uniq, g)
		uniqIdx = append(uniqIdx, i)
	}
	ufits, err := scoreUniq(uniq)
	if err != nil {
		return nil, 0, 0, err
	}
	for k, i := range uniqIdx {
		fits[i] = ufits[k]
		cache[keys[i]] = ufits[k]
	}
	for _, d := range dups {
		fits[d[0]] = fits[d[1]]
	}
	return fits, hits, len(uniq), nil
}

// evalBatch scores a batch of genomes, fanning out across workers when
// parallelism is enabled. The first error aborts the batch; a
// cancelled context stops the workers promptly.
func evalBatch[G any](ctx context.Context, gs []G, eval func(G) (float64, error), workers int) ([]float64, error) {
	return evalIndexed(ctx, len(gs), func(i int) (float64, error) { return eval(gs[i]) }, workers)
}

// evalIndexed runs eval(0..n-1) across workers and collects the
// results. The batch stops dispatching as soon as it is doomed: every
// worker checks the context and the shared stop flag after claiming an
// index and before evaluating, and the feeder stops handing out work,
// so after the first failure (or cancellation) only evaluations already
// in flight keep running — a long simulation is never *started* for a
// batch whose result will be discarded.
func evalIndexed(ctx context.Context, n int, eval func(int) (float64, error), workers int) ([]float64, error) {
	fits := make([]float64, n)
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			fit, err := eval(i)
			if err != nil {
				return nil, err
			}
			fits[i] = fit
		}
		return fits, nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if stop.Load() || ctx.Err() != nil {
					continue
				}
				fit, err := eval(i)
				if err != nil {
					stop.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				fits[i] = fit
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		if stop.Load() {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return fits, nil
}

func tournament[G any](rng *rand.Rand, pop []scored[G], k int) scored[G] {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.fit > best.fit {
			best = c
		}
	}
	return best
}

// sortPop orders by descending fitness (stable insertion sort: the
// populations are small and this avoids pulling in sort for a hot path
// that profiles flat anyway).
func sortPop[G any](pop []scored[G]) {
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].fit > pop[j-1].fit; j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}
