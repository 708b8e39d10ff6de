package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
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
// cycle loop, when it has no trace address (see traceAddr) or its trace
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

// traceAddr is a trace's one address. The trace cache, the
// finished-measurement memo, MeasureBatch's dedupe, the store (as hex)
// and the tier all key a trace by it, so the maps, like the store, rely
// on SHA-256 not colliding.
type traceAddr [sha256.Size]byte

// String is the address as the store names its record: lowercase hex.
func (a traceAddr) String() string { return hex.EncodeToString(a[:]) }

// traceAddr addresses everything phase 1 depends on. It streams into
// SHA-256 the capture digest (captureDigest), then per thread the
// length of its program's encoding, the encoding (asm.AppendEncode is
// canonical: sorted init registers and labels), its placement,
// instruction bound and start skew, then MaxCycles, the FP throttle and
// the dither plan, each number as 8 little-endian bytes. A thread whose
// program is the previous thread's reuses that encoding; any other
// thread's program is encoded again. SupplyVolts and WarmupCycles
// are deliberately absent — chip execution is supply-independent and
// warmup only gates phase-2 statistics — which is why median-of-K
// repeats, fault retries and the whole voltage-at-failure ladder replay
// one cached trace. ok is false when the run has no trace: an OS model
// injects interference the address does not cover, a run that is
// unbounded or longer than traceMaxCycles is not recorded, and an
// unencodable program has no address.
func (cp *CompiledPlatform) traceAddr(rc RunConfig) (a traceAddr, ok bool) {
	if rc.OS != nil || rc.MaxCycles == 0 || rc.MaxCycles > traceMaxCycles {
		return a, false
	}
	s := addrScratches.Get().(*addrScratch)
	defer addrScratches.Put(s)
	b, n := s.b[:0], 0 // b[:n]: the last program's encoding, after its length
	defer func() { s.b = b }()
	s.h.Reset()
	s.h.Write(cp.digest)
	for i, ts := range rc.Threads {
		if i == 0 || ts.Program != rc.Threads[i-1].Program {
			var err error
			if b, err = asm.AppendEncode(binary.LittleEndian.AppendUint64(b[:0], 0), ts.Program); err != nil {
				return a, false
			}
			binary.LittleEndian.PutUint64(b, uint64(len(b)-8))
			n = len(b)
		}
		b = appendWords(b[:n], uint64(ts.Module), uint64(ts.Core), ts.MaxInstrs, ts.StartSkew)
		s.h.Write(b)
	}
	b = appendWords(b[:0], rc.MaxCycles, uint64(rc.FPThrottle), uint64(len(rc.Dither)))
	for _, d := range rc.Dither {
		b = appendWords(b, uint64(d.Core), d.PeriodCycles, d.PadCycles)
	}
	s.h.Write(b)
	copy(a[:], s.h.Sum(b[:0]))
	return a, true
}

// appendWords appends each of vs as 8 little-endian bytes.
func appendWords(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// addrScratch is the SHA-256 state traceAddr streams into and the
// buffer it encodes a program in.
type addrScratch struct {
	h hash.Hash
	b []byte
}

var addrScratches = sync.Pool{New: func() any { return &addrScratch{h: sha256.New()} }}

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
	// Bytes is what the trace cache counts against its budget: each
	// resident trace's arrays (16 bytes a cycle) or stored bytes, plus
	// 256 bytes (chipTrace.sizeBytes). It leaves out the 32-byte
	// addresses the cache keys them by and the measurement memo.
	Bytes int
}

// replayMemoEntries bounds the finished-measurement memo (FIFO). Each
// entry is a 48-byte memoKey and a 240-byte Measurement, so a full memo
// holds about 1.2 MB beside the trace budget.
const replayMemoEntries = 4096

// memoKey keys the finished-measurement memo: a trace's address and the
// replay-side parameters a Measurement with no sample consumers
// depends on.
type memoKey struct {
	addr   traceAddr
	supply uint64 // math.Float64bits(RunConfig.SupplyVolts)
	warmup uint64
}

// memoKey returns the memo key of rc's replay of the trace at a; ok is
// false when sample consumers rule out the memo.
func (rc RunConfig) memoKey(a traceAddr) (memoKey, bool) {
	if rc.sampleConsumers() {
		return memoKey{}, false
	}
	return memoKey{a, math.Float64bits(rc.SupplyVolts), rc.WarmupCycles}, true
}

// traceCache is a byte-bounded FIFO cache of phase-1 traces. Entries
// are immutable, so concurrent builders of the same address simply race
// to insert identical traces (first wins). It also memoizes finished
// Measurements: a replay with no sample consumers is a pure function
// of (trace, supply, warmup), so repeating it — median-of-K scoring,
// fault-injected retries — returns a copy instead of re-running
// phase 2.
type traceCache struct {
	mu    sync.Mutex
	limit int
	used  int
	m     map[traceAddr]*chipTrace
	fifo  []traceAddr

	results    map[memoKey]Measurement
	resultFifo []memoKey

	// st holds the counters; Bytes is filled in by stats.
	st TraceStats
}

// count applies one counter update under the lock.
func (tc *traceCache) count(f func(*TraceStats)) {
	tc.mu.Lock()
	f(&tc.st)
	tc.mu.Unlock()
}

func (tc *traceCache) get(a traceAddr) *chipTrace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tr, ok := tc.m[a]; ok {
		tc.st.Hits++
		return tr
	}
	tc.st.Misses++
	return nil
}

func (tc *traceCache) put(a traceAddr, tr *chipTrace) {
	sz := tr.sizeBytes()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.m == nil {
		tc.m = map[traceAddr]*chipTrace{}
	}
	if _, ok := tc.m[a]; ok {
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
	tc.m[a] = tr
	tc.fifo = append(tc.fifo, a)
	tc.used += sz
}

// getResult looks up a memoized finished measurement. A hit counts as
// a cache hit (the run was served from cache, just further along the
// pipeline than a trace hit). Measurement holds no reference types
// once Waveform is excluded by eligibility, so the returned copy is
// private to the caller.
func (tc *traceCache) getResult(key memoKey) (Measurement, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if m, ok := tc.results[key]; ok {
		tc.st.Hits++
		tc.st.MemoHits++
		return m, true
	}
	return Measurement{}, false
}

func (tc *traceCache) putResult(key memoKey, m Measurement) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.results == nil {
		tc.results = map[memoKey]Measurement{}
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
