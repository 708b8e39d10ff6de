package testbed

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the generation-batched evaluation pipeline: the GA hands
// the testbed a whole generation's run configs at once and the
// evaluator exploits the batch shape that per-candidate Run calls
// cannot see. Stage 1 dedupes the configs down to distinct chip traces
// and captures the missing ones on a worker pool (the expensive chip
// simulation runs once per distinct program, not once per candidate).
// Stage 2 turns every ready replay — periodic and sample-consumer runs
// included — into a lane of the replay driver (replay.go) and packs
// the lanes into multi-lane passes per kernel, so one pass advances up
// to `lanes` candidate networks over the shared factorization (or the
// ROM); only exact-loop configs run outside the driver, on the same
// pool.
//
// Every measurement is bit-identical to CompiledPlatform.Run of the
// same config, at any ROM tolerance: Run is a one-lane pass of the same
// driver, each lane picks its kernel by the same per-lane rule, and a
// lane's output never depends on its pass-mates.

// DefaultBatchLanes is the fixed lane width callers may pass when they
// want to bypass automatic selection. Eight lanes is where the blocked
// multi-RHS solve saturates on the PDN-sized systems this repo ships —
// but fixing the width can idle workers when a generation doesn't
// split evenly (see autoLanes), which is why lanes <= 0 now selects
// the width automatically instead of defaulting here.
const DefaultBatchLanes = 8

// maxBatchLanes bounds the lane width; wider batches spill the solve's
// register blocks without adding throughput.
const maxBatchLanes = 32

// BatchRunner is a Runner that can evaluate a whole generation at once.
// The GA feeds it populations when available; decorators that cannot
// batch (e.g. fault injectors, which perturb runs individually) simply
// don't implement it and the GA stays per-candidate.
type BatchRunner interface {
	Runner
	// MeasureBatch measures every config, returning slot-aligned
	// measurements and errors (exactly one of ms[i], errs[i] is
	// non-nil). lanes <= 0 selects the lane width automatically from
	// the batch shape and a per-platform kernel calibration; workers
	// <= 0 selects GOMAXPROCS. The width never affects results, only
	// throughput.
	MeasureBatch(rcs []RunConfig, lanes, workers int) ([]*Measurement, []error)
}

// ContextBatchRunner is a BatchRunner whose batch call honours
// cancellation: once ctx is cancelled, no further work units are
// started, in-flight units finish (the simulator is CPU-bound and
// always terminates), and every slot the batch never resolved carries
// ctx.Err(). CompiledPlatform implements it; so does the distributed
// coordinator, which uses cancellation to stop waiting on workers.
type ContextBatchRunner interface {
	BatchRunner
	MeasureBatchContext(ctx context.Context, rcs []RunConfig, lanes, workers int) ([]*Measurement, []error)
}

var _ ContextBatchRunner = (*CompiledPlatform)(nil)

// runParallel runs job(0..n-1) on up to `workers` goroutines.
func runParallel(workers, n int, job func(int)) {
	runParallelCtx(context.Background(), workers, n, job)
}

// runParallelCtx is runParallel with cooperative cancellation: workers
// stop claiming new jobs once ctx is cancelled, so at most `workers`
// in-flight jobs run to completion and the rest never start. No
// goroutine outlives the call.
func runParallelCtx(ctx context.Context, workers, n int, job func(int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// MeasureBatch measures a generation of run configs through the
// two-stage pipeline. See the file comment for the stages; per-slot
// results are bit-identical to cp.Run(rcs[i]) run in isolation, and the
// slot order never affects any result.
func (cp *CompiledPlatform) MeasureBatch(rcs []RunConfig, lanes, workers int) ([]*Measurement, []error) {
	return cp.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

// MeasureBatchContext is MeasureBatch with cooperative cancellation.
// Slots resolved before the cancellation keep their (bit-identical)
// results; every slot the pipeline never reached reports ctx.Err()
// instead, so a caller abandoning the batch (a worker whose lease was
// revoked, a shutting-down coordinator) discards partial work cleanly.
// Captures already in flight run to completion — the simulator is
// CPU-bound and bounded — so no goroutine outlives the call.
func (cp *CompiledPlatform) MeasureBatchContext(ctx context.Context, rcs []RunConfig, lanes, workers int) ([]*Measurement, []error) {
	autoWidth := lanes <= 0
	if lanes > maxBatchLanes {
		lanes = maxBatchLanes
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(rcs)
	ms := make([]*Measurement, n)
	errs := make([]error, n)
	cp.traces.noteBatchRuns(n)

	// Classify each slot. Slots that share a finished-measurement memo
	// key are evaluated once (dups serve from the memo afterwards);
	// slots that share a trace key share one capture.
	exact := make([]int, 0, n)          // slots for the reference cycle loop
	memoRep := make(map[string]int, n)  // memoKey -> representative slot
	dupOf := make(map[int]int, n)       // duplicate slot -> representative
	groups := make(map[string][]int, n) // traceKey -> member slots
	memoKeys := make([]string, n)       // per-slot memo key ("" = not memoable)
	var keys []string                   // group keys in first-seen order
	for i, rc := range rcs {
		if err := rc.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if !cp.replayEligible(rc) {
			exact = append(exact, i)
			continue
		}
		key, mk, ok := replayKeys(rc)
		if !ok {
			exact = append(exact, i)
			continue
		}
		if mk != "" {
			memoKeys[i] = mk
			if m, ok := cp.traces.getResult(mk); ok {
				ms[i] = &m
				continue
			}
			if rep, seen := memoRep[mk]; seen {
				dupOf[i] = rep
				continue
			}
			memoRep[mk] = i
		}
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], i)
	}

	// Stage 1: resolve each group's trace — one cache lookup per group
	// (siblings would all have hit, so they count as hits), then a
	// worker pool captures the missing ones.
	ready := make(map[string]*chipTrace, len(groups))
	var missing []string
	for _, key := range keys {
		members := groups[key]
		if tr := cp.traces.get(key); tr != nil {
			ready[key] = tr
			for range members[1:] {
				cp.traces.noteHit()
			}
		} else {
			missing = append(missing, key)
		}
	}
	var readyMu sync.Mutex
	runParallelCtx(ctx, workers, len(missing), func(gi int) {
		key := missing[gi]
		members := groups[key]
		tr, err := cp.resolveTrace(key, rcs[members[0]])
		if err != nil {
			for _, i := range members {
				errs[i] = err
			}
			return
		}
		cp.traces.put(key, tr)
		readyMu.Lock()
		ready[key] = tr
		readyMu.Unlock()
		for range members[1:] {
			cp.traces.noteHit()
		}
	})

	// Stage 2: every ready slot becomes a lane (post-build unsupported
	// traces go to the exact loop). Lanes are packed per kernel — exact,
	// then ROM — longest stream first, and cut at the lane width so each
	// kernel pass stays wide; the pool runs the passes and the exact-loop
	// slots.
	var byKernel [2][]*replayLane
	for _, key := range keys {
		tr := ready[key]
		if tr == nil {
			continue // capture failed; members already hold the error
		}
		for _, i := range groups[key] {
			if tr.unsupported {
				exact = append(exact, i)
				continue
			}
			ln, err := cp.newLane(i, tr, rcs[i], memoKeys[i])
			if err != nil {
				errs[i] = err
				continue
			}
			k := 0
			if ln.rom {
				k = 1
			}
			byKernel[k] = append(byKernel[k], ln)
		}
	}
	if autoWidth {
		lanes = cp.autoLanes(len(byKernel[0])+len(byKernel[1]), workers)
	}
	var passes [][]*replayLane
	for _, kl := range byKernel {
		sort.SliceStable(kl, func(a, b int) bool { return kl[a].end > kl[b].end })
		for lo := 0; lo < len(kl); lo += lanes {
			passes = append(passes, kl[lo:min(lo+lanes, len(kl))])
		}
	}
	runParallelCtx(ctx, workers, len(passes)+len(exact), func(t int) {
		if t >= len(passes) {
			i := exact[t-len(passes)]
			ms[i], errs[i] = cp.runExact(rcs[i])
			return
		}
		pass := passes[t]
		cp.traces.noteLaneBatch(len(pass))
		cp.replayPass(pass)
		for _, ln := range pass {
			ms[ln.slot] = ln.fold.m
		}
	})

	// A cancelled batch leaves unreached slots unresolved; stamp them
	// with the cancellation before the duplicate pass so dups of an
	// unresolved representative inherit it instead of dereferencing nil.
	if err := ctx.Err(); err != nil {
		for i := range rcs {
			if ms[i] == nil && errs[i] == nil {
				if _, dup := dupOf[i]; !dup {
					errs[i] = err
				}
			}
		}
	}

	// Serve memo duplicates from their representative's finished
	// measurement (via the memo, so the hit counts as it would have
	// serially; fall back to a direct copy if the memo evicted it).
	for i, rep := range dupOf {
		if errs[rep] != nil {
			errs[i] = errs[rep]
			continue
		}
		if m, ok := cp.traces.getResult(memoKeys[i]); ok {
			ms[i] = &m
			continue
		}
		m := *ms[rep]
		ms[i] = &m
	}
	return ms, errs
}

// autoLanes picks the multi-lane kernel width for a generation of
// `jobs` lane-eligible replays over `workers` goroutines. The fixed
// default width idles workers whenever the job count doesn't cover
// workers × lanes (the BENCH_eval L8xW8 > L4xW8 regression: 32 jobs at
// 8 lanes is only 4 batches over 8 workers), so the width starts from
// the narrowest value that still gives every worker a batch,
// ceil(jobs/workers), and is then clamped to the platform's measured
// best kernel width once batches are deep enough for the clamp to
// matter. The width only moves throughput, never results.
func (cp *CompiledPlatform) autoLanes(jobs, workers int) int {
	if jobs <= 1 {
		return 1
	}
	L := (jobs + workers - 1) / workers
	if L <= 1 {
		return 1
	}
	if L > 4 {
		if w := cp.kernelLanes(); L > w {
			L = w
		}
	}
	if L > maxBatchLanes {
		L = maxBatchLanes
	}
	return L
}

// kernelLanes measures, once per platform, which lane width gives the
// exact multi-lane kernel its best per-lane throughput on this
// machine, over a short synthetic drive. The exact kernel is the one
// calibrated — it dominates wherever the width choice matters, and the
// reduced-order kernel's per-lane cost is width-flat so any clamp is
// safe for it. The measurement is wall-clock derived but feeds only
// the width choice, which never affects results.
func (cp *CompiledPlatform) kernelLanes() int {
	cp.laneOnce.Do(func() {
		const steps = 1024
		src := make([]float64, steps)
		for i := range src {
			src[i] = 20 + 10*math.Sin(2*math.Pi*float64(i)/36)
		}
		best, bestNS := DefaultBatchLanes, math.MaxFloat64
		for _, w := range []int{4, 8, 16, 32} {
			pb := cp.net.NewBatch(w)
			dst := make([][]float64, w)
			srcs := make([][]float64, w)
			mul := make([]float64, w)
			div := make([]float64, w)
			add := make([]float64, w)
			for l := 0; l < w; l++ {
				dst[l] = make([]float64, steps)
				srcs[l] = src
				mul[l], div[l], add[l] = 1, 1, 0
			}
			start := time.Now()
			pb.StepTraceBatch(dst, srcs, mul, div, add, steps)
			perLane := float64(time.Since(start).Nanoseconds()) / float64(w)
			if perLane < bestNS {
				best, bestNS = w, perLane
			}
		}
		cp.laneWidth = best
	})
	return cp.laneWidth
}
