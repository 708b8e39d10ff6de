package testbed

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/tracestore"
)

// This file is phase 1 of the two-phase measurement pipeline: run the
// chip alone, record its per-cycle (energy, unit-issue) trace for the
// whole run, and cache the result keyed by everything the chip side of
// a run depends on. Phase 2 (replay.go) streams the trace through the
// batched PDN kernel.

const (
	// traceMaxCycles bounds replay-eligible runs: the longest trace the
	// persistent store will hold (16 bytes/cycle keeps it at 64 MiB).
	traceMaxCycles = tracestore.MaxCycles
	// defaultTraceCacheBytes bounds the per-platform trace cache.
	defaultTraceCacheBytes = 128 << 20
)

// errTraceUnsupported routes a run to Platform.Run, the reference
// cycle loop, when it has no trace key (see traceKey) or its trace
// cannot be represented (per-cycle unit-issue count > 255). The
// unsupported-trace verdict is cached so repeats skip the doomed
// phase-1 attempt.
var errTraceUnsupported = errors.New("testbed: trace fast path unsupported for this run")

// Packed issue words hold one 8-bit count per execution unit; this
// fails to compile if isa.NumUnits outgrows the 64-bit word.
var _ [8 - int(isa.NumUnits)]struct{}

// packIssues packs a cycle's per-unit issue counts into one word,
// 8 bits per unit. ok is false on overflow (count > 255).
func packIssues(res *cpu.CycleResult) (uint64, bool) {
	var p uint64
	for u := 0; u < int(isa.NumUnits); u++ {
		c := res.UnitIssues[u]
		if uint(c) > 255 {
			return 0, false
		}
		p |= uint64(c) << (8 * uint(u))
	}
	return p, true
}

// chipTrace is one recorded phase-1 run: per-cycle dynamic energy and
// packed unit issues for every simulated cycle, plus the end-of-run
// chip counters. Immutable once built; shared read-only by concurrent
// replays.
//
// The cycles rest in one of two forms. A trace the platform's store
// holds keeps the store's bytes (enc, about 0.9 bytes a cycle on a
// search trace), which each replay decodes a chunk at a time into a
// pooled window of its own; any other trace keeps its arrays (energy
// and issues, 16 bytes a cycle).
type chipTrace struct {
	energy []float64
	issues []uint64
	enc    *tracestore.Encoded

	// done: the program finished at cycle len(energy).
	done bool
	// unsupported: the run cannot be traced (see errTraceUnsupported).
	unsupported bool

	// Chip counters at the end of the run.
	endStats   cpu.Stats
	endRetired uint64

	// maxEnergy is the largest per-cycle energy in the stored trace
	// (pJ) — with the amps conversion it bounds the replay's peak drive
	// current, which gates the reduced-order kernel against the
	// platform's declared voltage tolerance.
	maxEnergy float64

	// captureNS is how long phase-1 capture of this trace took (zero
	// when unknown, e.g. loaded from a v1 record). Telemetry only: it
	// travels with the record so store and tier hits can report how
	// much capture time they saved, and never touches any
	// deterministic output.
	captureNS uint64
}

// noteMaxEnergy recomputes maxEnergy over the stored entries.
func (tr *chipTrace) noteMaxEnergy() {
	m := 0.0
	for _, e := range tr.energy {
		if e > m {
			m = e
		}
	}
	tr.maxEnergy = m
}

// cycles is the trace's length.
func (tr *chipTrace) cycles() uint64 {
	if tr.enc != nil {
		return uint64(tr.enc.Cycles())
	}
	return uint64(len(tr.energy))
}

// sizeBytes approximates what the trace keeps resident in the cache.
func (tr *chipTrace) sizeBytes() int {
	if tr.enc != nil {
		return tr.enc.Size() + 256
	}
	return 16*len(tr.energy) + 256
}

// traceBuf is a pair of trace arrays from one of the platform's
// pools: a capture records into one, and a replay of a trace that
// rests as the store's bytes decodes into one sized as a window
// (getWindow).
type traceBuf struct {
	energy []float64
	issues []uint64
}

// traceBufMaxCycles caps the arrays the pool keeps (16 MiB a pair); a
// rare longer trace's are left to the collector.
const traceBufMaxCycles = 1 << 20

// getTraceBuf returns pooled trace arrays of length n.
func (cp *CompiledPlatform) getTraceBuf(n int) *traceBuf {
	b, _ := cp.traceBufs.Get().(*traceBuf)
	if b == nil {
		b = new(traceBuf)
	}
	if cap(b.energy) < n || cap(b.issues) < n {
		b.energy, b.issues = make([]float64, n), make([]uint64, n)
	}
	b.energy, b.issues = b.energy[:n], b.issues[:n]
	return b
}

// putTraceBuf returns b's arrays to the pool; nothing may use them
// after.
func (cp *CompiledPlatform) putTraceBuf(b *traceBuf) {
	if cap(b.energy) <= traceBufMaxCycles {
		cp.traceBufs.Put(b)
	}
}

// buildTrace is phase 1: run the chip alone (no PDN, no scope) and
// record its per-cycle trace. It mirrors Platform.measure's chip-side
// ordering exactly — start-skew stalls, Done check, dither injections,
// Step — so a replay of the trace is bit-identical to the exact loop.
// A run without dither steps each class of aligned, identical modules
// once (cpu.Chip.GroupAligned); a grouped run that leaves lockstep is
// captured again with every module stepped, so the trace is the same
// either way.
func (cp *CompiledPlatform) buildTrace(rc RunConfig) (tr_ *chipTrace, err_ error) {
	start := time.Now()
	var grouped, diverged bool
	defer func() {
		d := uint64(time.Since(start).Nanoseconds())
		if tr_ != nil {
			tr_.captureNS = d
		}
		cp.traces.count(func(s *TraceStats) {
			s.Captures++
			s.CaptureNS += d
			if grouped {
				s.Replicated++
			}
			if diverged {
				s.Recaptures++
			}
		})
	}()
	chip, err := cp.getChip()
	if err != nil {
		return nil, err
	}
	defer cp.chips.Put(chip)
	// The caller guarantees 0 < MaxCycles ≤ traceMaxCycles.
	buf := cp.getTraceBuf(int(min(rc.MaxCycles, 1<<16)))
	tr := &chipTrace{energy: buf.energy[:0], issues: buf.issues[:0]}
	g, err := cp.capture(chip, tr, rc, len(rc.Dither) == 0)
	if err == errDiverged {
		diverged = true
		chip.Reset()
		*tr = chipTrace{energy: tr.energy[:0], issues: tr.issues[:0]}
		g, err = cp.capture(chip, tr, rc, false)
	}
	if err != nil {
		return nil, err
	}
	grouped = g
	return tr, nil
}

// errDiverged reports a grouped capture that left lockstep.
var errDiverged = errors.New("testbed: grouped capture diverged")

// capture steps rc's run on a new or reset chip and appends its cycles
// to tr, grouping aligned modules when group is set. grouped reports
// that some module stepped through a representative; errDiverged, a
// grouped run that left lockstep, whose cycles tr must not keep.
func (cp *CompiledPlatform) capture(chip *cpu.Chip, tr *chipTrace, rc RunConfig, group bool) (grouped bool, err error) {
	if err := cp.p.attachThreads(chip, rc); err != nil {
		return false, err
	}
	if group {
		chip.GroupAligned()
	}
	cfg := cp.p.Chip
	for _, ts := range rc.Threads {
		if ts.StartSkew > 0 {
			if err := chip.InjectStall(ts.GlobalCore(cfg), ts.StartSkew); err != nil {
				return false, err
			}
		}
	}

	nextPad := make([]uint64, len(rc.Dither))
	for i, d := range rc.Dither {
		nextPad[i] = d.PeriodCycles
	}

	for cyc := uint64(0); cyc < rc.MaxCycles; cyc++ {
		if chip.Done() {
			tr.done = true
			break
		}
		for i := range rc.Dither {
			if cyc >= nextPad[i] {
				if err := chip.InjectStall(rc.Dither[i].Core, rc.Dither[i].PadCycles); err != nil {
					return false, err
				}
				nextPad[i] += rc.Dither[i].PeriodCycles
			}
		}
		res := chip.Step()
		if chip.Diverged() {
			return false, errDiverged
		}
		packed, ok := packIssues(res)
		if !ok {
			tr.unsupported = true
			return chip.Grouped(), nil
		}
		tr.energy = append(tr.energy, res.EnergyPJ)
		tr.issues = append(tr.issues, packed)
	}
	tr.endStats, tr.endRetired = chip.Stats(), chip.Retired()
	tr.noteMaxEnergy()
	return chip.Grouped(), nil
}

// traceKey fingerprints everything phase 1 depends on: per-thread
// program bytes (asm.Encode is canonical: sorted init registers and
// labels), placement, instruction bounds and start skew, plus
// MaxCycles, the FP throttle and the dither plan. SupplyVolts and
// WarmupCycles are deliberately absent — chip execution is
// supply-independent and warmup only gates phase-2 statistics — which
// is why median-of-K repeats, fault retries and the whole
// voltage-at-failure ladder replay one cached trace. ok is false when
// the run has no trace: an OS model injects interference the key does
// not carry, a run that is unbounded or longer than traceMaxCycles is
// not recorded, and an unencodable program has no key. The returned
// string is the key followed by tail. A search candidate's key runs to
// about 18 KB: it is assembled in a pooled buffer, each distinct
// program encoded straight into it, so the string is its one
// allocation.
func traceKey(rc RunConfig, tail []byte) (string, bool) {
	if rc.OS != nil || rc.MaxCycles == 0 || rc.MaxCycles > traceMaxCycles {
		return "", false
	}
	ks := keyScratches.Get().(*keyScratch)
	b, encs := ks.b[:0], ks.encs[:0]
	defer func() {
		if cap(b) <= keyScratchMaxBytes {
			ks.b, ks.encs = b, encs
			keyScratches.Put(ks)
		}
	}()
	put := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	for i, ts := range rc.Threads {
		put(0) // the encoding's length, set below
		at := len(b)
		if j := slices.IndexFunc(rc.Threads[:i], func(o ThreadSpec) bool { return o.Program == ts.Program }); j >= 0 {
			b = append(b, b[encs[j][0]:encs[j][1]]...)
		} else {
			var err error
			if b, err = asm.AppendEncode(b, ts.Program); err != nil {
				return "", false
			}
		}
		encs = append(encs, [2]int{at, len(b)})
		binary.LittleEndian.PutUint64(b[at-8:], uint64(len(b)-at))
		put(uint64(ts.Module), uint64(ts.Core), ts.MaxInstrs, ts.StartSkew)
	}
	put(rc.MaxCycles, uint64(rc.FPThrottle), uint64(len(rc.Dither)))
	for _, d := range rc.Dither {
		put(uint64(d.Core), d.PeriodCycles, d.PadCycles)
	}
	b = append(b, tail...)
	return string(b), true
}

// keyScratch is the buffer traceKey assembles a key in, and where each
// thread's program encoding lies in it.
type keyScratch struct {
	b    []byte
	encs [][2]int
}

// keyScratchMaxBytes caps the buffer the pool keeps; a rare longer
// key's is left to the collector.
const keyScratchMaxBytes = 1 << 20

var keyScratches = sync.Pool{New: func() any { return new(keyScratch) }}

// TraceStats reports trace-cache and fast-path activity.
type TraceStats struct {
	// Hits and Misses count cache lookups by replay-eligible runs; a
	// hit is served either by replaying a resident trace or straight
	// from the finished-measurement memo.
	Hits, Misses uint64
	// MemoHits counts the subset of Hits answered by the measurement
	// memo without touching the PDN at all (repeats of a deterministic
	// run with no sample consumers attached).
	MemoHits uint64
	// BatchRuns counts run configs that entered MeasureBatch's
	// generation pipeline (whatever stage ultimately served them).
	BatchRuns uint64
	// LaneRuns counts the replays MeasureBatch ran as lanes of kernel
	// passes, and LaneBatches those passes (a Run is a one-lane pass
	// but is not counted), so LaneRuns/LaneBatches is the mean lane
	// occupancy the pipeline achieved.
	LaneRuns, LaneBatches uint64
	// ROMReplays and ExactReplays split phase-2 PDN replays by kernel:
	// the reduced-order modal kernel (admitted when Platform.ROMTolV
	// covers the trace's worst-case error) versus the exact LU kernel.
	ROMReplays, ExactReplays uint64
	// PeriodicReplays and PDNEarlyExits always read 0: every replay
	// streams its whole trace, so no replay reuses a period or leaves
	// the PDN early. They stay because cmd/auditbench reports them under
	// fixed per-layer metric names (testbed.periodic_replays and
	// testbed.pdn_early_exits).
	PeriodicReplays, PDNEarlyExits uint64
	// StoreHits and StoreMisses count persistent trace-store lookups —
	// consulted only when the in-memory cache misses and a store is
	// attached (SetTraceStore). A store hit skips phase 1 entirely.
	StoreHits, StoreMisses uint64
	// TierHits and TierMisses count shared trace-tier lookups
	// (SetTraceTier) — consulted after the local store misses. A tier
	// hit ships the compressed record over the wire instead of
	// recapturing; a miss means this worker captures (it may hold the
	// tier's single-flight claim for the key).
	TierHits, TierMisses uint64
	// WireBytes is the total encoded-record payload moved over the
	// trace tier, both directions.
	WireBytes uint64
	// CaptureNSSaved sums the recorded phase-1 cost of every trace the
	// store or tier served in place of a recapture — the data plane's
	// dividend. Zero-cost for v1 records, which predate the telemetry.
	CaptureNSSaved uint64
	// Captures counts phase-1 buildTrace invocations — the recaptures
	// the caches failed to prevent. A warm run reports zero.
	Captures uint64
	// Replicated counts the captures that stepped some module once for
	// an aligned, identical one (cpu.Chip.GroupAligned). Recaptures
	// counts the grouped captures that left lockstep and were captured
	// again with every module stepped; neither adds to Captures.
	Replicated, Recaptures uint64
	// CaptureNS and ReplayNS split the fast path's wall time between
	// phase-1 capture (buildTrace) and phase-2 PDN replay, in
	// nanoseconds summed across workers. Wall-clock derived: excluded
	// from any deterministic output.
	CaptureNS, ReplayNS uint64
	// Bytes is the cache's current footprint.
	Bytes int
}

// replayMemoEntries bounds the finished-measurement memo (FIFO). Each
// entry is a couple hundred bytes, so the memo never rivals the trace
// budget.
const replayMemoEntries = 4096

// traceCache is a byte-bounded FIFO cache of phase-1 traces. Entries
// are immutable, so concurrent builders of the same key simply race to
// insert identical traces (first wins). It also memoizes finished
// Measurements: a replay with no sample consumers is a pure function
// of (trace, supply, warmup), so repeating it — median-of-K scoring,
// fault-injected retries — returns a copy instead of re-running
// phase 2.
type traceCache struct {
	mu    sync.Mutex
	limit int
	used  int
	m     map[string]*chipTrace
	fifo  []string

	results    map[string]Measurement
	resultFifo []string

	// st holds the counters; Bytes is filled in by stats.
	st TraceStats
}

// count applies one counter update under the lock.
func (tc *traceCache) count(f func(*TraceStats)) {
	tc.mu.Lock()
	f(&tc.st)
	tc.mu.Unlock()
}

func (tc *traceCache) get(key string) *chipTrace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tr, ok := tc.m[key]; ok {
		tc.st.Hits++
		return tr
	}
	tc.st.Misses++
	return nil
}

func (tc *traceCache) put(key string, tr *chipTrace) {
	sz := tr.sizeBytes()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.m == nil {
		tc.m = map[string]*chipTrace{}
	}
	if _, ok := tc.m[key]; ok {
		return // lost a build race; the resident trace is identical
	}
	limit := tc.limit
	if limit <= 0 {
		limit = defaultTraceCacheBytes
	}
	if sz > limit {
		return // too big to cache; the caller still replays it once
	}
	for tc.used+sz > limit && len(tc.fifo) > 0 {
		old := tc.fifo[0]
		tc.fifo = tc.fifo[1:]
		if otr, ok := tc.m[old]; ok {
			tc.used -= otr.sizeBytes()
			delete(tc.m, old)
		}
	}
	tc.m[key] = tr
	tc.fifo = append(tc.fifo, key)
	tc.used += sz
}

// getResult looks up a memoized finished measurement. A hit counts as
// a cache hit (the run was served from cache, just further along the
// pipeline than a trace hit). Measurement holds no reference types
// once Waveform is excluded by eligibility, so the returned copy is
// private to the caller.
func (tc *traceCache) getResult(key string) (Measurement, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if m, ok := tc.results[key]; ok {
		tc.st.Hits++
		tc.st.MemoHits++
		return m, true
	}
	return Measurement{}, false
}

func (tc *traceCache) putResult(key string, m Measurement) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.results == nil {
		tc.results = map[string]Measurement{}
	}
	if _, ok := tc.results[key]; ok {
		return // identical by determinism; keep the resident copy
	}
	for len(tc.resultFifo) >= replayMemoEntries {
		delete(tc.results, tc.resultFifo[0])
		tc.resultFifo = tc.resultFifo[1:]
	}
	tc.results[key] = m
	tc.resultFifo = append(tc.resultFifo, key)
}

func (tc *traceCache) stats() TraceStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := tc.st
	s.Bytes = tc.used
	return s
}

func (tc *traceCache) clear() {
	tc.mu.Lock()
	tc.m = nil
	tc.fifo = nil
	tc.used = 0
	tc.results = nil
	tc.resultFifo = nil
	tc.mu.Unlock()
}

func (tc *traceCache) setLimit(bytes int) {
	tc.mu.Lock()
	tc.limit = bytes
	tc.mu.Unlock()
}
