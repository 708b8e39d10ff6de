package testbed

import (
	"fmt"
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
	traceBufs sync.Pool // *traceBuf capture arrays
	windows   sync.Pool // *traceBuf replay windows over stored traces

	// traces caches phase-1 chip traces by address, shared by every
	// replay-eligible run of this platform. digest is captureDigest,
	// the first bytes traceAddr hashes.
	traces traceCache
	digest []byte

	// store, when attached, persists traces across processes beneath
	// the in-memory cache; tier, when attached, shares them across
	// machines (resolution order: memory → store → tier → capture).
	store *tracestore.Store
	tier  TraceTier
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
	cp := &CompiledPlatform{p: p, net: net, settled: map[float64]*pdn.PDN{}, digest: captureDigest(p)}
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

// Run executes one measurement through the two-phase trace-replay
// pipeline: phase 1 runs the chip alone and records its per-cycle
// current trace for the whole run (cached across runs), phase 2
// streams the whole trace through the batched PDN kernel. On the exact
// kernel a replay is bit-identical to Platform.Run(rc); the
// reduced-order kernel, which Platform.ROMTolV admits, stays within
// that tolerance. A run no trace can carry (errTraceUnsupported) is
// handed to Platform.Run.
func (cp *CompiledPlatform) Run(rc RunConfig) (*Measurement, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	m, err := cp.runReplay(rc)
	if err == errTraceUnsupported {
		return cp.p.Run(rc)
	}
	return m, err
}

// sampleConsumers reports whether rc attaches a scope, trigger or
// histogram. Those consume every post-warmup voltage, which rules out
// the finished-measurement memo.
func (rc RunConfig) sampleConsumers() bool {
	return rc.RecordWaveform || rc.TriggerThreshold > 0 || rc.Histogram != nil
}

// runReplay executes rc through the trace pipeline as a one-lane pass,
// building and caching the chip trace on first sight of this
// configuration. Runs with no sample consumers are memoized outright:
// the simulator is deterministic, so a repeated (trace, supply, warmup)
// run — the GA's median-of-K scoring, a fault-injected retry — returns
// a copy of the finished Measurement without touching the PDN.
func (cp *CompiledPlatform) runReplay(rc RunConfig) (*Measurement, error) {
	a, ok := cp.traceAddr(rc)
	if !ok {
		return nil, errTraceUnsupported
	}
	if mk, ok := rc.memoKey(a); ok {
		if m, ok := cp.traces.getResult(mk); ok {
			return &m, nil
		}
	}
	tr := cp.traces.get(a)
	if tr == nil {
		var err error
		if tr, err = cp.resolveTrace(a, rc); err != nil {
			return nil, err
		}
		cp.traces.put(a, tr)
	}
	if tr.unsupported {
		return nil, errTraceUnsupported
	}
	ln, err := cp.newLane(0, tr, rc, a)
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

// FindFailureVoltage is Platform.FindFailureVoltage on the fast path:
// the whole ladder replays one cached trace, and each probe voltage's
// regulator settle is computed once and replayed for every later visit.
// Results are bit-identical to the slow path.
func (cp *CompiledPlatform) FindFailureVoltage(rc RunConfig, floor float64) (float64, bool, error) {
	return findFailureVoltage(cp, cp.p.PDN.VNom, rc, floor)
}
