package testbed

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/tracestore"
)

// This file is phase 1 of the two-phase measurement pipeline: run the
// chip alone, record a per-cycle (energy, unit-issue) trace, detect
// when the trace has become periodic, and cache the result keyed by
// everything the chip side of a run depends on. Phase 2 (replay.go)
// streams the trace through the batched PDN kernel.
//
// Periodicity detection is two-tier. A per-boundary key
// (cpu.Chip.StateFingerprint mixed with the cycle's energy/issue record
// and the dither phases) feeds Brent's cycle-detection algorithm, which
// proposes a candidate period in O(1) memory. The key is computed only
// where Brent needs it: at anchors, and at boundaries whose record and
// phases already equal the anchor's (DESIGN.md §11, "Cycle cost"). A
// candidate is trusted only after the recorded trace repeats it
// bit-for-bit over two further periods AND the chip's
// retired/branch/cache counters advance by identical per-period deltas
// — the cycles are being recorded anyway, so verification costs nothing
// beyond running 2 extra periods.
// Programs whose energy is not exactly periodic (the generated dec/jnz
// loop closers toggle a monotone counter, making dec's toggle energy
// follow the binary ruler sequence) fail verification and fall back to
// a full-length trace, which still replays bit-identically and still
// caches; truly periodic loops (jmp-closed) stop the chip after
// head + 3 periods.

const (
	// traceMaxCycles bounds replay-eligible runs: the longest trace the
	// persistent store will hold (16 bytes/cycle keeps it at 64 MiB).
	traceMaxCycles = tracestore.MaxCycles
	// defaultTraceCacheBytes bounds the per-platform trace cache.
	defaultTraceCacheBytes = 128 << 20
	// detectInitLimit is Brent's initial search window (doubled until
	// the period fits inside it).
	detectInitLimit = 64
	// detectMaxAttempts bounds failed candidate verifications before
	// detection is disabled for the run (the trace is still recorded).
	detectMaxAttempts = 8
)

// errTraceUnsupported routes a run back to the exact cycle loop when
// its trace cannot be represented (per-cycle unit-issue count > 255 or
// an unencodable program). The verdict is cached so repeats skip the
// doomed phase-1 attempt.
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
// packed unit issues, plus either end-of-run chip counters (full
// traces) or the periodic decomposition head+period with per-period
// counter deltas. Immutable once built; shared read-only by concurrent
// replays.
type chipTrace struct {
	energy []float64
	issues []uint64

	// done: the program finished at cycle len(energy).
	done bool
	// unsupported: the run cannot be traced (see errTraceUnsupported).
	unsupported bool

	// Full-trace finals (valid when !periodic).
	endStats   cpu.Stats
	endRetired uint64

	// Periodic decomposition: entries [0, headLen) are the transient
	// head, [headLen, headLen+periodLen) one verified period.
	periodic  bool
	headLen   int
	periodLen int
	// Chip counters at the reference boundary headLen+periodLen and
	// their verified per-period deltas.
	refStats   cpu.Stats
	refRetired uint64
	perStats   cpu.Stats
	perRetired uint64
	// Pre-aggregated period totals for closed-form extrapolation.
	periodEnergy float64
	periodIssues [isa.NumUnits]uint64

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

// sizeBytes approximates the trace's cache footprint.
func (tr *chipTrace) sizeBytes() int { return 16*len(tr.energy) + 256 }

// segEqual reports whether entries [i, i+n) and [j, j+n) are
// bit-identical in both energy and issues.
func (tr *chipTrace) segEqual(i, j, n int) bool {
	ei, ej := tr.energy[i:i+n], tr.energy[j:j+n]
	qi, qj := tr.issues[i:i+n], tr.issues[j:j+n]
	for k := range ei {
		if ei[k] != ej[k] || qi[k] != qj[k] {
			return false
		}
	}
	return true
}

// acceptPeriod finalises a verified periodic decomposition: truncate
// the trace to head + one period and pre-aggregate the period totals.
func (tr *chipTrace) acceptPeriod(head, p int, refStats cpu.Stats, refRetired uint64, perStats cpu.Stats, perRetired uint64) {
	tr.periodic = true
	tr.headLen, tr.periodLen = head, p
	tr.refStats, tr.refRetired = refStats, refRetired
	tr.perStats, tr.perRetired = perStats, perRetired
	tr.energy = tr.energy[:head+p]
	tr.issues = tr.issues[:head+p]
	for _, e := range tr.energy[head:] {
		tr.periodEnergy += e
	}
	for _, q := range tr.issues[head:] {
		for u := 0; u < int(isa.NumUnits); u++ {
			tr.periodIssues[u] += (q >> (8 * uint(u))) & 0xff
		}
	}
}

// statsSub returns a - b fieldwise.
func statsSub(a, b cpu.Stats) cpu.Stats {
	return cpu.Stats{
		Branches: a.Branches - b.Branches, Mispredicts: a.Mispredicts - b.Mispredicts,
		L1Hits: a.L1Hits - b.L1Hits, L1Misses: a.L1Misses - b.L1Misses,
		L2Hits: a.L2Hits - b.L2Hits, L2Misses: a.L2Misses - b.L2Misses,
		L3Hits: a.L3Hits - b.L3Hits, L3Misses: a.L3Misses - b.L3Misses,
	}
}

// periodDetector runs Brent's cycle detection over the per-boundary
// keys and verifies candidates against the trace. Boundary index b is
// the number of recorded entries (the state after cycle b-1).
type periodDetector struct {
	maxCycles uint64
	disabled  bool
	attempts  int

	// phase holds the observed boundary's dither phases (cycles to each
	// core's next pad), filled by the caller before observe.
	phase []uint64

	// The anchor: its boundary, key, and the parts of the key that are
	// compared exactly before the key itself is computed.
	hasAnchor   bool
	anchorFP    uint64
	anchorE     uint64
	anchorQ     uint64
	anchorPhase []uint64
	anchorAt    int
	limit       int

	// Armed candidate: period pendP first matched at boundary pendB2,
	// so the hypothesis is that entries [pendB2-pendP, ...) repeat.
	pendP  int
	pendB2 int
	s0, s1 cpu.Stats
	r0, r1 uint64
}

func newPeriodDetector(maxCycles uint64, dithers int) *periodDetector {
	return &periodDetector{
		maxCycles:   maxCycles,
		phase:       make([]uint64, dithers),
		anchorPhase: make([]uint64, dithers),
	}
}

// key is the boundary's full detector key: the approximate control state
// mixed with the cycle's exact trace record e (energy bits) and q
// (packed issues), capturing data-toggle activity compactly, and the
// dither phases — so a detected period is automatically a common
// multiple of every dither period (LCM folding).
func (d *periodDetector) key(e, q uint64, chip *cpu.Chip) uint64 {
	fp := mix64(chip.StateFingerprint(), e)
	fp = mix64(fp, q)
	for _, ph := range d.phase {
		fp = mix64(fp, ph)
	}
	return fp
}

// anchor makes boundary b, with record (e, q) and the current phases,
// Brent's anchor.
func (d *periodDetector) anchor(b int, e, q uint64, chip *cpu.Chip) {
	d.anchorFP, d.anchorE, d.anchorQ, d.anchorAt = d.key(e, q, chip), e, q, b
	copy(d.anchorPhase, d.phase)
}

// matchesAnchor reports whether boundary (e, q) has the anchor's key.
// The key is a bijection of the chip fingerprint once the record and
// phases are fixed, so it is computed only when those equal the
// anchor's; otherwise the keys could agree only by a 64-bit collision.
func (d *periodDetector) matchesAnchor(e, q uint64, chip *cpu.Chip) bool {
	if e != d.anchorE || q != d.anchorQ {
		return false
	}
	for i, ph := range d.phase {
		if ph != d.anchorPhase[i] {
			return false
		}
	}
	return d.key(e, q, chip) == d.anchorFP
}

// observe feeds boundary b, whose cycle recorded energy bits e and
// packed issues q; returns true once a period has been verified and
// recorded into tr (the caller stops the chip).
func (d *periodDetector) observe(b int, e, q uint64, tr *chipTrace, chip *cpu.Chip) bool {
	if d.disabled {
		return false
	}
	if d.pendP > 0 {
		switch b {
		case d.pendB2 + d.pendP:
			// One period past the match: entries [b2-p, b2) must equal
			// [b2, b2+p) or the candidate dies here.
			if tr.segEqual(d.pendB2-d.pendP, d.pendB2, d.pendP) {
				d.s1, d.r1 = chip.Stats(), chip.Retired()
			} else {
				d.reject()
			}
		case d.pendB2 + 2*d.pendP:
			// Two periods past the match: a second bit-exact repeat and
			// matching per-period counter deltas seal it.
			s2, r2 := chip.Stats(), chip.Retired()
			if tr.segEqual(d.pendB2, d.pendB2+d.pendP, d.pendP) &&
				statsSub(d.s1, d.s0) == statsSub(s2, d.s1) &&
				d.r1-d.r0 == r2-d.r1 {
				tr.acceptPeriod(d.pendB2-d.pendP, d.pendP,
					d.s0, d.r0, statsSub(d.s1, d.s0), d.r1-d.r0)
				return true
			}
			d.reject()
		}
	}
	if !d.hasAnchor {
		d.hasAnchor, d.limit = true, detectInitLimit
		d.anchor(b, e, q, chip)
		return false
	}
	if b > d.anchorAt && d.pendP == 0 && d.attempts < detectMaxAttempts && d.matchesAnchor(e, q, chip) {
		// Candidate period: distance back to the anchor. Only arm if
		// the two verification periods fit inside the run.
		if p := b - d.anchorAt; uint64(b)+2*uint64(p) <= d.maxCycles {
			d.pendP, d.pendB2 = p, b
			d.s0, d.r0 = chip.Stats(), chip.Retired()
		}
	}
	if b-d.anchorAt >= d.limit {
		// Brent window doubling: re-anchor so the window eventually
		// exceeds the (unknown) period and the anchor lands in the
		// steady state.
		d.anchor(b, e, q, chip)
		d.limit *= 2
	}
	return false
}

func (d *periodDetector) reject() {
	d.pendP = 0
	if d.attempts++; d.attempts >= detectMaxAttempts {
		d.disabled = true
	}
}

// mix64 folds v into an FNV-1a style running hash.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// buildTrace is phase 1: run the chip alone (no PDN, no scope) and
// record its per-cycle trace, stopping early once a period has been
// verified. It mirrors Platform.measure's chip-side ordering exactly —
// start-skew stalls, Done check, dither injections, Step — so a replay
// of the trace is bit-identical to the exact loop.
func (cp *CompiledPlatform) buildTrace(rc RunConfig) (tr_ *chipTrace, err_ error) {
	start := time.Now()
	defer func() {
		d := uint64(time.Since(start).Nanoseconds())
		if tr_ != nil {
			tr_.captureNS = d
		}
		cp.traces.noteCapture(d)
	}()
	chip, err := cp.getChip()
	if err != nil {
		return nil, err
	}
	if err := cp.p.attachThreads(chip, rc); err != nil {
		return nil, err
	}
	cfg := cp.p.Chip
	for _, ts := range rc.Threads {
		if ts.StartSkew > 0 {
			if err := chip.InjectStall(ts.GlobalCore(cfg), ts.StartSkew); err != nil {
				return nil, err
			}
		}
	}

	nextPad := make([]uint64, len(rc.Dither))
	for i, d := range rc.Dither {
		nextPad[i] = d.PeriodCycles
	}

	maxCycles := rc.MaxCycles // caller guarantees 0 < maxCycles ≤ traceMaxCycles
	est := maxCycles
	if est > 1<<16 {
		est = 1 << 16
	}
	tr := &chipTrace{
		energy: make([]float64, 0, est),
		issues: make([]uint64, 0, est),
	}
	// MaxInstrs-bounded threads can end on a monotone counter the
	// fingerprint cannot see, which would break the "periodic forever"
	// argument — record their full trace instead.
	detect := true
	for _, ts := range rc.Threads {
		if ts.MaxInstrs > 0 {
			detect = false
		}
	}
	var det *periodDetector
	if detect {
		det = newPeriodDetector(maxCycles, len(rc.Dither))
	}

	for cyc := uint64(0); cyc < maxCycles; cyc++ {
		if chip.Done() {
			tr.done = true
			break
		}
		for i := range rc.Dither {
			if cyc >= nextPad[i] {
				if err := chip.InjectStall(rc.Dither[i].Core, rc.Dither[i].PadCycles); err != nil {
					return nil, err
				}
				nextPad[i] += rc.Dither[i].PeriodCycles
			}
		}
		res := chip.Step()
		packed, ok := packIssues(&res)
		if !ok {
			tr.unsupported = true
			cp.chips.Put(chip)
			return tr, nil
		}
		tr.energy = append(tr.energy, res.EnergyPJ)
		tr.issues = append(tr.issues, packed)
		if det != nil {
			for i := range nextPad {
				det.phase[i] = nextPad[i] - (cyc + 1)
			}
			if det.observe(len(tr.energy), math.Float64bits(res.EnergyPJ), packed, tr, chip) {
				break
			}
		}
	}
	if !tr.periodic {
		tr.endStats, tr.endRetired = chip.Stats(), chip.Retired()
	}
	tr.noteMaxEnergy()
	cp.chips.Put(chip)
	return tr, nil
}

// traceKey fingerprints everything phase 1 depends on: per-thread
// program bytes (asm.Encode is canonical: sorted init registers and
// labels), placement, instruction bounds and start skew, plus
// MaxCycles, the FP throttle and the dither plan. SupplyVolts and
// WarmupCycles are deliberately absent — chip execution is
// supply-independent and warmup only gates phase-2 statistics — which
// is why median-of-K repeats, fault retries and the whole
// voltage-at-failure ladder replay one cached trace.
func traceKey(rc RunConfig) (string, bool) {
	b := make([]byte, 0, 512)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		b = append(b, w[:]...)
	}
	var encs map[*asm.Program][]byte
	for _, ts := range rc.Threads {
		enc, ok := encs[ts.Program]
		if !ok {
			var err error
			enc, err = asm.Encode(ts.Program)
			if err != nil {
				return "", false
			}
			if encs == nil {
				encs = map[*asm.Program][]byte{}
			}
			encs[ts.Program] = enc
		}
		put(uint64(len(enc)))
		b = append(b, enc...)
		put(uint64(ts.Module))
		put(uint64(ts.Core))
		put(ts.MaxInstrs)
		put(ts.StartSkew)
	}
	put(rc.MaxCycles)
	put(uint64(rc.FPThrottle))
	put(uint64(len(rc.Dither)))
	for _, d := range rc.Dither {
		put(uint64(d.Core))
		put(d.PeriodCycles)
		put(d.PadCycles)
	}
	return string(b), true
}

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
	// Periodic counts cached traces that verified periodic (the chip
	// stopped early).
	Periodic uint64
	// PDNEarlyExits counts replays whose PDN response converged and was
	// extrapolated instead of stepped to the end.
	PDNEarlyExits uint64
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
	// PeriodicReplays counts phase-2 replays of verified-periodic
	// traces (the ones that enter the period-reuse machinery), and
	// ModalPeriodic the subset whose affine period map was built and
	// advanced in the ROM's modal coordinates — m+1 probe lanes instead
	// of StateDim+1 plus an analytic convergence exit.
	PeriodicReplays, ModalPeriodic uint64
	// AffineProbeLanes totals the one-period kernel lanes (reference
	// included) run to build affine period maps, on either the exact or
	// the modal path — the dominant cost of a short periodic replay.
	AffineProbeLanes uint64
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

	hits, misses, memoHits, earlyExits uint64
	batchRuns, laneRuns, laneBatches   uint64
	storeHits, storeMisses             uint64
	tierHits, tierMisses, wireBytes    uint64
	captureSavedNS, captures           uint64
	captureNS, replayNS                uint64
	romReplays, exactReplays           uint64
	periodicReplays, modalPeriodic     uint64
	probeLanes                         uint64
}

// noteReplays records n phase-2 replays on the ROM or exact kernel.
func (tc *traceCache) noteReplays(n int, rom bool) {
	tc.mu.Lock()
	if rom {
		tc.romReplays += uint64(n)
	} else {
		tc.exactReplays += uint64(n)
	}
	tc.mu.Unlock()
}

// notePeriodicReplay records one replay of a periodic trace; modal
// marks the reduced-order (modal-coordinate) period path.
func (tc *traceCache) notePeriodicReplay(modal bool) {
	tc.mu.Lock()
	tc.periodicReplays++
	if modal {
		tc.modalPeriodic++
	}
	tc.mu.Unlock()
}

// noteProbeLanes records n one-period probe lanes run to build an
// affine period map (reference lane included).
func (tc *traceCache) noteProbeLanes(n int) {
	tc.mu.Lock()
	tc.probeLanes += uint64(n)
	tc.mu.Unlock()
}

func (tc *traceCache) get(key string) *chipTrace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tr, ok := tc.m[key]; ok {
		tc.hits++
		return tr
	}
	tc.misses++
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

func (tc *traceCache) noteEarlyExit() {
	tc.mu.Lock()
	tc.earlyExits++
	tc.mu.Unlock()
}

// noteHit records a cache hit for a batch member that shares a trace
// another member already looked up (the group does one real get; the
// siblings would each have hit too).
func (tc *traceCache) noteHit() {
	tc.mu.Lock()
	tc.hits++
	tc.mu.Unlock()
}

// noteBatchRuns records n run configs entering the generation pipeline.
func (tc *traceCache) noteBatchRuns(n int) {
	tc.mu.Lock()
	tc.batchRuns += uint64(n)
	tc.mu.Unlock()
}

// noteLaneBatch records one multi-lane kernel pass replaying n lanes.
func (tc *traceCache) noteLaneBatch(n int) {
	tc.mu.Lock()
	tc.laneBatches++
	tc.laneRuns += uint64(n)
	tc.mu.Unlock()
}

// noteStore records one persistent-store lookup; a hit saves the
// record's original capture cost.
func (tc *traceCache) noteStore(hit bool, savedNS uint64) {
	tc.mu.Lock()
	if hit {
		tc.storeHits++
		tc.captureSavedNS += savedNS
	} else {
		tc.storeMisses++
	}
	tc.mu.Unlock()
}

// noteTier records one shared-tier lookup and its wire traffic.
func (tc *traceCache) noteTier(hit bool, savedNS, wire uint64) {
	tc.mu.Lock()
	if hit {
		tc.tierHits++
		tc.captureSavedNS += savedNS
	} else {
		tc.tierMisses++
	}
	tc.wireBytes += wire
	tc.mu.Unlock()
}

// noteWire charges tier publish traffic.
func (tc *traceCache) noteWire(wire uint64) {
	tc.mu.Lock()
	tc.wireBytes += wire
	tc.mu.Unlock()
}

// noteCapture charges one phase-1 capture of duration d.
func (tc *traceCache) noteCapture(d uint64) {
	tc.mu.Lock()
	tc.captures++
	tc.captureNS += d
	tc.mu.Unlock()
}

// addReplayNS charges elapsed time since start to phase-2 replay.
func (tc *traceCache) addReplayNS(start time.Time) {
	d := uint64(time.Since(start).Nanoseconds())
	tc.mu.Lock()
	tc.replayNS += d
	tc.mu.Unlock()
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
		tc.hits++
		tc.memoHits++
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
	s := TraceStats{Hits: tc.hits, Misses: tc.misses, MemoHits: tc.memoHits,
		PDNEarlyExits: tc.earlyExits, BatchRuns: tc.batchRuns,
		LaneRuns: tc.laneRuns, LaneBatches: tc.laneBatches,
		ROMReplays: tc.romReplays, ExactReplays: tc.exactReplays,
		PeriodicReplays: tc.periodicReplays, ModalPeriodic: tc.modalPeriodic,
		AffineProbeLanes: tc.probeLanes,
		StoreHits:        tc.storeHits, StoreMisses: tc.storeMisses,
		TierHits: tc.tierHits, TierMisses: tc.tierMisses,
		WireBytes: tc.wireBytes, CaptureNSSaved: tc.captureSavedNS,
		Captures:  tc.captures,
		CaptureNS: tc.captureNS, ReplayNS: tc.replayNS, Bytes: tc.used}
	for _, tr := range tc.m {
		if tr.periodic {
			s.Periodic++
		}
	}
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
