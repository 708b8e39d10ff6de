package testbed

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/cpu"
	"repro/internal/pdn"
	"repro/internal/tracestore"
)

// CompiledPlatform is the evaluation fast path: the PDN system matrix
// is factored once, chip instances and scope buffers are pooled, and
// regulator settling at a given supply voltage is computed once and
// replayed from a cached snapshot. Every Run is bit-identical to
// Platform.Run on the same RunConfig — same droops, same failure
// cycle, same statistics — it only skips redundant construction work.
//
// A CompiledPlatform is safe for concurrent use; the GA's Parallel
// workers share one.
type CompiledPlatform struct {
	p   Platform
	net *pdn.Compiled

	chips sync.Pool // *cpu.Chip, dirty until Reset

	// settled caches a regulator-settled PDN snapshot per exact supply
	// voltage. The settle loop is deterministic, so replaying a clone
	// of its output is bit-identical to settling afresh — and the
	// voltage-at-failure procedure revisits the same float64 voltages
	// run after run, so exact-key lookup hits.
	mu      sync.Mutex
	settled map[float64]*pdn.PDN

	scopeBufs sync.Pool // []float64 waveform storage
	vbufs     sync.Pool // []float64 replay voltage buffers

	// traces caches phase-1 chip traces keyed by traceKey, shared by
	// every replay-eligible run of this platform.
	traces traceCache

	// store, when attached, persists traces across processes beneath
	// the in-memory cache; tier, when attached, shares them across
	// machines (resolution order: memory → store → tier → capture).
	// storeSalt is the platform digest prefixed to every store and
	// tier key (see store.go).
	store     *tracestore.Store
	tier      TraceTier
	storeSalt []byte

	// laneOnce/laneWidth cache the measured best multi-lane kernel
	// width for `-batch-lanes auto` (see kernelLanes in batch.go).
	laneOnce  sync.Once
	laneWidth int
}

// romOK reports whether the platform's declared voltage tolerance
// admits the reduced-order kernel for a replay of tr at the given amps
// conversion (div = dt·supply, add = leakage amps): the ROM must have
// compiled and its calibrated per-amp error bound, scaled by the
// trace's peak drive current, must stay within Platform.ROMTolV.
func (cp *CompiledPlatform) romOK(tr *chipTrace, div, add float64) bool {
	tol := cp.p.ROMTolV
	if tol <= 0 {
		return false
	}
	r, err := cp.net.ROM()
	if err != nil {
		return false
	}
	maxAmp := tr.maxEnergy*1e-12/div + add
	return r.ErrPerAmpV()*maxAmp <= tol
}

// Compile validates the platform once and builds the shared immutable
// state behind the fast path. Every compiled path (search, worker,
// coordinator, corpus replay, library) passes through here, so this is
// the one place a ROM tolerance is checked: a negative or NaN value
// would otherwise mint a meaningless "rom:-…" platform digest.
func (p Platform) Compile() (*CompiledPlatform, error) {
	if !(p.ROMTolV >= 0) {
		return nil, fmt.Errorf("testbed: ROM tolerance must be a non-negative voltage, got %v", p.ROMTolV)
	}
	net, err := pdn.Compile(p.PDN, p.Chip.CycleSeconds())
	if err != nil {
		return nil, err
	}
	chip, err := cpu.NewChip(p.Chip, p.Power)
	if err != nil {
		return nil, err
	}
	cp := &CompiledPlatform{p: p, net: net, settled: map[float64]*pdn.PDN{}}
	cp.chips.Put(chip)
	return cp, nil
}

// Platform returns the immutable platform description.
func (cp *CompiledPlatform) Platform() Platform { return cp.p }

// Nominal returns the platform's nominal supply voltage.
func (cp *CompiledPlatform) Nominal() float64 { return cp.p.PDN.VNom }

// getChip returns a reset pooled chip, or builds one.
func (cp *CompiledPlatform) getChip() (*cpu.Chip, error) {
	if ch, ok := cp.chips.Get().(*cpu.Chip); ok && ch != nil {
		ch.Reset()
		return ch, nil
	}
	return cpu.NewChip(cp.p.Chip, cp.p.Power)
}

// getNet returns a pooled PDN state ready for measurement: at the DC
// operating point for nominal runs, or settled at the requested supply
// (from the snapshot cache when this voltage has been settled before).
func (cp *CompiledPlatform) getNet(supplyOverride float64) *pdn.PDN {
	net := cp.net.Get()
	if supplyOverride <= 0 {
		return net
	}
	cp.mu.Lock()
	tmpl := cp.settled[supplyOverride]
	cp.mu.Unlock()
	if tmpl == nil {
		cp.p.settle(net, supplyOverride)
		tmpl = net.Clone()
		cp.mu.Lock()
		cp.settled[supplyOverride] = tmpl
		cp.mu.Unlock()
		return net
	}
	net.CopyStateFrom(tmpl)
	return net
}

// Run executes one measurement through the fast path. Most runs go
// through the two-phase trace-replay pipeline: phase 1 runs the chip
// alone and records a per-cycle current trace (cached across runs,
// stopping early when the trace proves periodic), phase 2 streams it
// through the batched PDN kernel with a steady-state early exit. Full
// replays are bit-identical to Platform.Run(rc); periodic early exits
// agree to the convergence tolerance (and exactly on energy and issue
// totals). RunConfig.ExactCycleLoop — or an OS model, MaxCycles of 0,
// or a run too long to buffer — forces the reference loop.
func (cp *CompiledPlatform) Run(rc RunConfig) (*Measurement, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if cp.replayEligible(rc) {
		m, err := cp.runReplay(rc)
		if err != errTraceUnsupported {
			return m, err
		}
	}
	return cp.runExact(rc)
}

// replayEligible gates the trace fast path: the exact loop is required
// when the caller asked for it, when an OS model injects aperiodic
// interference the trace cannot capture, and when the run is unbounded
// or too long to buffer at 16 bytes/cycle.
func (cp *CompiledPlatform) replayEligible(rc RunConfig) bool {
	return !rc.ExactCycleLoop && rc.OS == nil && rc.MaxCycles > 0 && rc.MaxCycles <= traceMaxCycles
}

// sampleConsumers reports whether rc attaches a scope, trigger or
// histogram. Those consume every post-warmup voltage, which rules out
// the finished-measurement memo and the PDN early exit.
func (rc RunConfig) sampleConsumers() bool {
	return rc.RecordWaveform || rc.TriggerThreshold > 0 || rc.Histogram != nil
}

// replayKeys returns rc's trace key and, for a run with no sample
// consumers, its finished-measurement memo key: the trace key extended
// with the replay-side parameters (supply, warmup) such a Measurement
// depends on. memoKey is "" when the run is not memoable; ok is false
// when the run has no trace key.
func replayKeys(rc RunConfig) (key, memoKey string, ok bool) {
	if key, ok = traceKey(rc); ok && !rc.sampleConsumers() {
		var w [16]byte
		binary.LittleEndian.PutUint64(w[:8], math.Float64bits(rc.SupplyVolts))
		binary.LittleEndian.PutUint64(w[8:], rc.WarmupCycles)
		memoKey = key + string(w[:])
	}
	return key, memoKey, ok
}

// runReplay executes rc through the trace pipeline as a one-lane pass,
// building and caching the chip trace on first sight of this
// configuration. Runs with no sample consumers are memoized outright:
// the simulator is deterministic, so a repeated (trace, supply, warmup)
// run — the GA's median-of-K scoring, a fault-injected retry — returns
// a copy of the finished Measurement without touching the PDN.
func (cp *CompiledPlatform) runReplay(rc RunConfig) (*Measurement, error) {
	key, memoKey, ok := replayKeys(rc)
	if !ok {
		return nil, errTraceUnsupported
	}
	if memoKey != "" {
		if m, ok := cp.traces.getResult(memoKey); ok {
			return &m, nil
		}
	}
	tr := cp.traces.get(key)
	if tr == nil {
		var err error
		if tr, err = cp.resolveTrace(key, rc); err != nil {
			return nil, err
		}
		cp.traces.put(key, tr)
	}
	if tr.unsupported {
		return nil, errTraceUnsupported
	}
	ln, err := cp.newLane(0, tr, rc, memoKey)
	if err != nil {
		return nil, err
	}
	cp.replayPass([]*replayLane{ln})
	return ln.fold.m, nil
}

// TraceStats reports the platform's trace-cache and fast-path counters.
func (cp *CompiledPlatform) TraceStats() TraceStats { return cp.traces.stats() }

// ClearTraceCache drops every cached chip trace (benchmarking aid).
func (cp *CompiledPlatform) ClearTraceCache() { cp.traces.clear() }

// SetTraceCacheLimit overrides the trace cache's byte budget
// (default 128 MiB). It applies to subsequent insertions.
func (cp *CompiledPlatform) SetTraceCacheLimit(bytes int) { cp.traces.setLimit(bytes) }

// runExact is the reference per-cycle measurement loop on pooled state.
func (cp *CompiledPlatform) runExact(rc RunConfig) (*Measurement, error) {
	chip, err := cp.getChip()
	if err != nil {
		return nil, err
	}
	if err := cp.p.attachThreads(chip, rc); err != nil {
		return nil, err
	}
	supply := cp.p.PDN.VNom
	if rc.SupplyVolts > 0 {
		supply = rc.SupplyVolts
	}
	net := cp.getNet(rc.SupplyVolts)

	var buf []float64
	if rc.RecordWaveform {
		if b, ok := cp.scopeBufs.Get().([]float64); ok {
			buf = b
		}
	}
	m, err := cp.p.measure(chip, net, rc, supply, buf)
	if m != nil && m.Waveform != nil {
		// The scope filled pooled storage; hand the caller a private
		// copy and recycle the backing buffer.
		w := m.Waveform
		m.Waveform = append([]float64(nil), w...)
		cp.scopeBufs.Put(w[:0])
	}
	if err == nil {
		cp.net.Put(net)
		cp.chips.Put(chip)
	}
	return m, err
}

// FindFailureVoltage is Platform.FindFailureVoltage on the fast path:
// each probe voltage's regulator settle is computed once and replayed
// for every later visit, which is where most of the procedure's time
// goes. Results are bit-identical to the slow path.
func (cp *CompiledPlatform) FindFailureVoltage(rc RunConfig, floor float64) (float64, bool, error) {
	if floor <= 0 || floor >= cp.p.PDN.VNom {
		return 0, false, fmt.Errorf("testbed: floor %g out of range", floor)
	}
	for v := cp.p.PDN.VNom; v >= floor; v -= FailureStep {
		cfg := rc
		cfg.SupplyVolts = v
		m, err := cp.Run(cfg)
		if err != nil {
			return 0, false, err
		}
		if m.Failed {
			return v, true, nil
		}
	}
	return floor, false, nil
}
