package ga

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// transienter is the error-classification contract: any error in the
// chain exposing Transient() true is retryable (faults.Error does; so
// does the internal per-attempt timeout). Everything else is permanent.
type transienter interface{ Transient() bool }

// isTransient reports whether err is retryable.
func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// timeoutError marks an evaluation attempt abandoned by EvalTimeout.
type timeoutError struct{ d time.Duration }

func (e *timeoutError) Error() string   { return fmt.Sprintf("ga: evaluation exceeded %s", e.d) }
func (e *timeoutError) Transient() bool { return true }

// sleepFn waits for d or until ctx is cancelled. A package variable so
// the backoff tests can substitute a fake clock.
var sleepFn = func(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// evaluator wraps the user's fitness function with the lab-resilience
// policy: per-attempt timeout, transient-error retry with capped
// exponential backoff, median-of-K repeated measurement with outlier
// rejection, and graceful degradation. It is shared by all of
// evalBatch's workers; the counters are mutex-guarded.
type evaluator[G any] struct {
	cfg  Config
	eval func(G) (float64, error)

	mu       sync.Mutex
	retries  int
	timedOut int
	degraded int
}

func newEvaluator[G any](cfg Config, eval func(G) (float64, error)) *evaluator[G] {
	return &evaluator[G]{cfg: cfg, eval: eval}
}

// drain folds the evaluator's counters into the result.
func (e *evaluator[G]) drain(res *Result[G]) {
	e.mu.Lock()
	res.Retries, res.TimedOut, res.Degraded = e.retries, e.timedOut, e.degraded
	e.mu.Unlock()
}

// restore re-seeds the counters from a resumed result.
func (e *evaluator[G]) restore(res *Result[G]) {
	e.mu.Lock()
	e.retries, e.timedOut, e.degraded = res.Retries, res.TimedOut, res.Degraded
	e.mu.Unlock()
}

// worstFitness is the degraded score (lowest possible under
// maximisation that still round-trips through JSON, unlike -Inf).
func (e *evaluator[G]) worstFitness() float64 {
	if e.cfg.WorstFitness != 0 {
		return e.cfg.WorstFitness
	}
	return -math.MaxFloat64
}

// evaluate scores one genome under the full policy: its first
// measurement, then the same follow-up a batch-scored candidate gets.
func (e *evaluator[G]) evaluate(ctx context.Context, g G) (float64, error) {
	fit, err := e.call(ctx, g)
	return e.finish(ctx, g, fit, err)
}

// fail resolves an exhausted attempt: propagate cancellation and
// permanent-policy errors, or degrade to the worst fitness.
func (e *evaluator[G]) fail(ctx context.Context, err error) (float64, error) {
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if !e.cfg.DegradeFailures {
		return 0, err
	}
	e.mu.Lock()
	e.degraded++
	e.mu.Unlock()
	return e.worstFitness(), nil
}

// attempt runs one measurement with retry/backoff on transient faults.
func (e *evaluator[G]) attempt(ctx context.Context, g G) (float64, error) {
	fit, err := e.call(ctx, g)
	return e.retryLoop(ctx, g, fit, err)
}

// retryLoop applies the retry/backoff policy to a first measurement
// outcome, re-running the per-genome eval on transient failures.
func (e *evaluator[G]) retryLoop(ctx context.Context, g G, fit float64, err error) (float64, error) {
	backoff := e.cfg.RetryBackoff
	maxBackoff := e.cfg.RetryBackoffCap
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	for try := 0; ; try++ {
		if err == nil {
			return fit, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, ctxErr
		}
		if !isTransient(err) || try >= e.cfg.MaxRetries {
			return 0, err
		}
		e.mu.Lock()
		e.retries++
		e.mu.Unlock()
		if serr := sleepFn(ctx, backoff); serr != nil {
			return 0, serr
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		fit, err = e.call(ctx, g)
	}
}

// finish resolves one candidate from its first measurement, taken by
// e.call or by a generation-level batch: retry a failed first attempt,
// take Repeats-1 further samples when repeated measurement is on, and
// degrade or propagate exhausted failures. With one repeat it keeps no
// sample buffer (the hot default; the GA allocation budget is
// benchmarked).
func (e *evaluator[G]) finish(ctx context.Context, g G, fit float64, err error) (float64, error) {
	fit, err = e.retryLoop(ctx, g, fit, err)
	if err != nil {
		return e.fail(ctx, err)
	}
	k := e.cfg.Repeats
	if k <= 1 {
		return fit, nil
	}
	samples := make([]float64, 0, k)
	samples = append(samples, fit)
	for rep := 1; rep < k; rep++ {
		fit, err := e.attempt(ctx, g)
		if err != nil {
			return e.fail(ctx, err)
		}
		samples = append(samples, fit)
	}
	return robustCentre(samples), nil
}

// evalGeneration scores one deduplicated batch through a
// generation-level evaluator: the batch call supplies every candidate's
// first measurement at once (where capture sharing and lane-batched
// replay live), then candidates needing the serial policy — failed
// first attempts, Repeats > 1 — finish on the worker pool.
func (e *evaluator[G]) evalGeneration(ctx context.Context, gs []G, batch func(context.Context, []G) ([]float64, []error), workers int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(gs) == 0 {
		return nil, nil
	}
	bfits, berrs := batch(ctx, gs)
	if len(bfits) != len(gs) || len(berrs) != len(gs) {
		return nil, fmt.Errorf("ga: generation evaluator returned %d fits / %d errs for %d genomes", len(bfits), len(berrs), len(gs))
	}
	fits := make([]float64, len(gs))
	var follow []int
	for i := range gs {
		if berrs[i] == nil && e.cfg.Repeats <= 1 {
			fits[i] = bfits[i]
			continue
		}
		follow = append(follow, i)
	}
	if len(follow) == 0 {
		return fits, nil
	}
	ffits, err := evalIndexed(ctx, len(follow), func(k int) (float64, error) {
		i := follow[k]
		return e.finish(ctx, gs[i], bfits[i], berrs[i])
	}, workers)
	if err != nil {
		return nil, err
	}
	for k, i := range follow {
		fits[i] = ffits[k]
	}
	return fits, nil
}

// call runs the fitness function once, bounded by EvalTimeout. The
// simulator is CPU-bound and always terminates, so an over-deadline
// attempt's goroutine finishes in the background and its (stale)
// result is discarded.
func (e *evaluator[G]) call(ctx context.Context, g G) (float64, error) {
	if e.cfg.EvalTimeout <= 0 {
		return e.eval(g)
	}
	type outcome struct {
		fit float64
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		fit, err := e.eval(g)
		done <- outcome{fit, err}
	}()
	t := time.NewTimer(e.cfg.EvalTimeout)
	defer t.Stop()
	select {
	case o := <-done:
		return o.fit, o.err
	case <-t.C:
		e.mu.Lock()
		e.timedOut++
		e.mu.Unlock()
		return 0, &timeoutError{e.cfg.EvalTimeout}
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// robustCentre reduces repeated measurements to one score: the median,
// or for K ≥ 3 the mean of samples within 3 median-absolute-deviations
// of the median (rejecting e.g. a throttling episode that depressed
// one capture).
func robustCentre(samples []float64) float64 {
	switch len(samples) {
	case 0:
		return 0
	case 1:
		return samples[0]
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	med := median(sorted)
	if len(sorted) < 3 {
		return med
	}
	devs := make([]float64, len(sorted))
	for i, s := range sorted {
		devs[i] = math.Abs(s - med)
	}
	sort.Float64s(devs)
	mad := median(devs)
	if mad == 0 {
		return med
	}
	var sum float64
	var n int
	for _, s := range sorted {
		if math.Abs(s-med) <= 3*mad {
			sum += s
			n++
		}
	}
	if n == 0 {
		return med
	}
	return sum / float64(n)
}

// median of an already-sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
