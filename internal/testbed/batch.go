package testbed

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pdn"
)

// This file is the generation-batched evaluation pipeline: the GA hands
// the testbed a whole generation's run configs at once and the
// evaluator exploits the batch shape that per-candidate Run calls
// cannot see. Stage 1 dedupes the configs down to distinct chip traces
// and captures the missing ones on a worker pool (the expensive chip
// simulation runs once per distinct program, not once per candidate).
// Stage 2 turns every ready replay — sample-consumer runs included —
// into a lane of the replay driver (replay.go) and packs
// the lanes into multi-lane passes per kernel, so one pass advances up
// to `lanes` candidate networks over the shared factorization (or the
// ROM); only configs no trace can carry run outside the driver, on
// Platform.Run from the same pool. Each kernel's passes are sized from
// that kernel's own lane count (autoLanes).
//
// Every measurement is bit-identical to CompiledPlatform.Run of the
// same config, at any ROM tolerance: Run is a one-lane pass of the same
// driver, each lane picks its kernel by the same per-lane rule, and a
// lane's output never depends on its pass-mates.

// DefaultBatchLanes is a fixed lane width tests pass to show that the
// width never moves a result: one group of the exact kernel, which
// steps pdn.GroupLanes lanes per call. Production callers pass 0 and
// let autoLanes size each pass.
const DefaultBatchLanes = pdn.GroupLanes

// maxBatchLanes bounds the lane width at four exact-kernel groups. A
// pass steps its groups one after another, so per-lane cost is flat
// past one group.
const maxBatchLanes = 4 * pdn.GroupLanes

// kernelGroup is the group width autoLanes cuts each kernel's passes
// in: whole exact-kernel groups, whose calls cost the same padded or
// full, and single ROM lanes. The ROM kernel steps 4-lane groups, but
// cutting all-ROM batches in them lost throughput (DESIGN.md §10), so
// its passes stay ⌈jobs/workers⌉ wide.
var kernelGroup = [2]int{pdn.GroupLanes, 1}

// BatchRunner is a Runner that can evaluate a whole generation at once.
// The GA feeds it populations when available; decorators that cannot
// batch (e.g. fault injectors, which perturb runs individually) simply
// don't implement it and the GA stays per-candidate.
type BatchRunner interface {
	Runner
	// MeasureBatch measures every config, returning slot-aligned
	// measurements and errors (exactly one of ms[i], errs[i] is
	// non-nil). lanes <= 0 selects the lane width automatically from
	// the batch shape, and every production caller passes 0; a fixed
	// width exists so tests can show the width never affects results,
	// only throughput. workers <= 0 selects GOMAXPROCS.
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
	cp.traces.count(func(s *TraceStats) { s.BatchRuns += uint64(n) })

	// Classify each slot. Slots that share a finished-measurement memo
	// key are evaluated once (dups serve from the memo afterwards);
	// slots that share a trace address share one capture.
	untraced := make([]int, 0, n)          // slots for Platform.Run
	memoRep := make(map[memoKey]int, n)    // memo key -> representative slot
	dupOf := make(map[int]memoKey, n)      // duplicate slot -> its memo key
	groups := make(map[traceAddr][]int, n) // trace address -> member slots
	var addrs []traceAddr                  // group addresses in first-seen order
	for i, rc := range rcs {
		if err := rc.Validate(); err != nil {
			errs[i] = err
			continue
		}
		a, ok := cp.traceAddr(rc)
		if !ok {
			untraced = append(untraced, i)
			continue
		}
		if mk, ok := rc.memoKey(a); ok {
			if m, ok := cp.traces.getResult(mk); ok {
				ms[i] = &m
				continue
			}
			if _, seen := memoRep[mk]; seen {
				dupOf[i] = mk
				continue
			}
			memoRep[mk] = i
		}
		if _, seen := groups[a]; !seen {
			addrs = append(addrs, a)
		}
		groups[a] = append(groups[a], i)
	}

	// Stage 1: resolve each group's trace — one cache lookup per group
	// (siblings would all have hit, so they count as hits), then a
	// worker pool captures the missing ones.
	ready := make(map[traceAddr]*chipTrace, len(groups))
	var missing []traceAddr
	for _, a := range addrs {
		members := groups[a]
		if tr := cp.traces.get(a); tr != nil {
			ready[a] = tr
			cp.traces.count(func(s *TraceStats) { s.Hits += uint64(len(members) - 1) })
		} else {
			missing = append(missing, a)
		}
	}
	var readyMu sync.Mutex
	runParallelCtx(ctx, workers, len(missing), func(gi int) {
		a := missing[gi]
		members := groups[a]
		tr, err := cp.resolveTrace(a, rcs[members[0]])
		if err != nil {
			for _, i := range members {
				errs[i] = err
			}
			return
		}
		cp.traces.put(a, tr)
		readyMu.Lock()
		ready[a] = tr
		readyMu.Unlock()
		cp.traces.count(func(s *TraceStats) { s.Hits += uint64(len(members) - 1) })
	})

	// Stage 2: every ready slot becomes a lane (post-build unsupported
	// traces go to Platform.Run). Lanes are packed per kernel — exact,
	// then ROM — longest stream first, and cut at the lane width, which
	// autoLanes sizes from each kernel's own lane count; the pool runs
	// the passes and the Platform.Run slots.
	var byKernel [2][]*replayLane
	for _, a := range addrs {
		tr := ready[a]
		if tr == nil {
			continue // capture failed; members already hold the error
		}
		for _, i := range groups[a] {
			if tr.unsupported {
				untraced = append(untraced, i)
				continue
			}
			ln, err := cp.newLane(i, tr, rcs[i], a)
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
	var passes [][]*replayLane
	for k, kl := range byKernel {
		width := lanes
		if autoWidth {
			width = autoLanes(len(kl), workers, kernelGroup[k])
		}
		sort.SliceStable(kl, func(a, b int) bool { return kl[a].n > kl[b].n })
		passes = cutPasses(passes, kl, width)
	}
	runParallelCtx(ctx, workers, len(passes)+len(untraced), func(t int) {
		if t >= len(passes) {
			i := untraced[t-len(passes)]
			ms[i], errs[i] = cp.p.Run(rcs[i])
			return
		}
		pass := passes[t]
		cp.traces.count(func(s *TraceStats) { s.LaneBatches++; s.LaneRuns += uint64(len(pass)) })
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
	for i, mk := range dupOf {
		rep := memoRep[mk]
		if errs[rep] != nil {
			errs[i] = errs[rep]
			continue
		}
		if m, ok := cp.traces.getResult(mk); ok {
			ms[i] = &m
			continue
		}
		m := *ms[rep]
		ms[i] = &m
	}
	return ms, errs
}

// autoLanes picks one kernel's lane width for its `jobs` lanes over
// `workers` goroutines, in whole groups of `group` lanes:
// group·⌈⌈jobs/group⌉/workers⌉, clamped at maxBatchLanes (a whole
// number of exact-kernel groups). Because ⌈⌈j/G⌉/w⌉ = ⌈j/(G·w)⌉, the
// widest pass has as many groups as under ⌈jobs/workers⌉, which hands
// every worker a pass (the BENCH_eval L8xW8 > L4xW8 regression: 32
// jobs at 8 lanes is only 4 passes over 8 workers), while all passes
// together make ⌈jobs/group⌉ groups: no pass but the last pads a
// group. At group 1 it is ⌈jobs/workers⌉. The width depends on the
// batch shape alone and only moves throughput, never results.
func autoLanes(jobs, workers, group int) int {
	groups := (jobs + group - 1) / group
	return min(max(group*((groups+workers-1)/workers), group), maxBatchLanes)
}

// cutPasses appends lanes to passes in consecutive passes of at most
// width lanes.
func cutPasses(passes [][]*replayLane, lanes []*replayLane, width int) [][]*replayLane {
	for lo := 0; lo < len(lanes); lo += width {
		passes = append(passes, lanes[lo:min(lo+width, len(lanes))])
	}
	return passes
}
