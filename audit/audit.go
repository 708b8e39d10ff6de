// Package audit is the public API of the AUDIT reproduction: automated
// di/dt stressmark generation for multi-core processors, after
// Kim et al., "AUDIT: Stress Testing the Automatic Way" (MICRO 2012).
//
// The package re-exports the user-facing pieces of the internal
// implementation as one coherent surface:
//
//   - Platform: a full simulated test system — cycle-level multi-core
//     chip, power model, RLC power-delivery network, virtual scope and
//     failure model (the paper's Fig. 8 bench).
//   - Generate: the AUDIT framework itself — genetic search over
//     instruction schedules whose fitness is the measured voltage droop
//     (Fig. 5), with automatic resonance detection, hierarchical
//     sub-blocking (§3.C) and pluggable cost functions.
//   - Dithering planners (§3.B) that guarantee worst-case thread
//     alignment in bounded time, exact and approximate.
//   - The comparison workloads of the evaluation: SPEC/PARSEC-style
//     kernels and the manual stressmarks SM1, SM2 and SM-Res.
//
// Quick start:
//
//	plat := audit.BulldozerPlatform()
//	sm, err := audit.Generate(audit.Options{Platform: plat, Threads: 4})
//	...
//	m, err := audit.MeasureDroop(plat, sm.Program, 4)
package audit

import (
	"context"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/testbed"
	"repro/internal/workloads"
)

// Re-exported types. These aliases are the supported API; the internal
// packages behind them may reorganise.
type (
	// Platform is a complete simulated test system.
	Platform = testbed.Platform
	// CompiledPlatform is a platform compiled for repeated runs: the
	// PDN system matrix is factored once, chip instances are pooled,
	// and regulator settling is cached per supply voltage. Runs are
	// bit-identical to Platform.Run, just cheaper after the first.
	CompiledPlatform = testbed.CompiledPlatform
	// RunConfig configures one measurement run.
	RunConfig = testbed.RunConfig
	// Measurement is what a run produced.
	Measurement = testbed.Measurement
	// ThreadSpec places a program on a core.
	ThreadSpec = testbed.ThreadSpec
	// DitherSpec applies periodic alignment padding to one core.
	DitherSpec = testbed.DitherSpec
	// Runner is anything that can execute a measurement run — a
	// Platform, a CompiledPlatform, or a FaultInjector wrapping either.
	Runner = testbed.Runner
	// BatchRunner is a Runner that can evaluate a whole generation of
	// run configs through the two-stage batch pipeline (shared trace
	// captures, multi-lane replay). CompiledPlatform implements it.
	BatchRunner = testbed.BatchRunner
	// TraceStats snapshots the trace-cache and batch-pipeline counters.
	TraceStats = testbed.TraceStats

	// FaultConfig describes a lab-fault model (rates and amplitudes).
	FaultConfig = faults.Config
	// FaultInjector wraps a Runner with deterministic injected faults.
	FaultInjector = faults.Injector
	// FaultStats counts what an injector did.
	FaultStats = faults.Stats

	// Options configures stressmark generation.
	Options = core.Options
	// Stressmark is AUDIT's output.
	Stressmark = core.Stressmark
	// Genome is a stressmark candidate under search.
	Genome = core.Genome
	// CostFunc scores a measurement for the GA.
	CostFunc = core.CostFunc
	// DitherPlan schedules alignment sweeps.
	DitherPlan = core.DitherPlan
	// ResonanceSweep detects the PDN resonance from software.
	ResonanceSweep = core.ResonanceSweep
	// SweepPoint is one probe of a resonance sweep.
	SweepPoint = core.SweepPoint
	// Mode selects resonance or excitation generation.
	Mode = core.Mode

	// GAConfig tunes the genetic search.
	GAConfig = ga.Config

	// Program is an assembled instruction sequence.
	Program = asm.Program
	// Workload is one comparison benchmark.
	Workload = workloads.Workload

	// PDNConfig is the lumped power-delivery-network description.
	PDNConfig = pdn.Config
)

// Generation modes.
const (
	Resonance  = core.Resonance
	Excitation = core.Excitation
)

// Compile prepares a platform for repeated measurement runs (the
// evaluation fast path). Use it when running many configurations of
// one platform — GA loops, voltage-at-failure searches, sweeps.
func Compile(p Platform) (*CompiledPlatform, error) { return p.Compile() }

// BulldozerPlatform returns the paper's primary test system: four
// two-core modules with shared front ends and FPUs at 3.6 GHz.
func BulldozerPlatform() Platform { return testbed.Bulldozer() }

// PhenomPlatform returns the secondary 45 nm system of §5.C.
func PhenomPlatform() Platform { return testbed.Phenom() }

// Generate runs the AUDIT flow: optional resonance detection, then the
// genetic search with droop measured on the platform as fitness.
func Generate(opt Options) (*Stressmark, error) {
	return core.Generate(context.Background(), opt)
}

// GenerateContext is Generate with cancellation: ctx stops the search
// between evaluations. Combined with Options.CheckpointPath, an
// interrupted search resumes losslessly via Options.Resume.
func GenerateContext(ctx context.Context, opt Options) (*Stressmark, error) {
	return core.Generate(ctx, opt)
}

// MeasureDroop runs a program on n spatially-spread threads at nominal
// supply and returns the measurement.
func MeasureDroop(p Platform, prog *Program, threads int) (*Measurement, error) {
	specs, err := testbed.SpreadPlacement(p.Chip, prog, threads)
	if err != nil {
		return nil, err
	}
	return p.Run(RunConfig{
		Threads:      specs,
		MaxCycles:    28000,
		WarmupCycles: 3000,
	})
}

// FindFailureVoltage lowers the supply in 12.5 mV steps until the run
// fails, returning the highest failing voltage. The search runs on the
// compiled fast path (one matrix factorisation, pooled chips, cached
// regulator settles) and is bit-identical to probing with p.Run.
func FindFailureVoltage(p Platform, prog *Program, threads int) (float64, bool, error) {
	specs, err := testbed.SpreadPlacement(p.Chip, prog, threads)
	if err != nil {
		return 0, false, err
	}
	cp, err := p.Compile()
	if err != nil {
		return 0, false, err
	}
	rc := RunConfig{Threads: specs, MaxCycles: 25000, WarmupCycles: 3000}
	return cp.FindFailureVoltage(rc, p.Nominal()-0.3)
}

// ExactDither builds the exact §3.B alignment plan.
func ExactDither(cores []int, loopCycles, m int) (DitherPlan, error) {
	return core.ExactDither(cores, loopCycles, m)
}

// ApproxDither builds the approximate plan with alignment granularity δ.
func ApproxDither(cores []int, loopCycles, m, delta int) (DitherPlan, error) {
	return core.ApproxDither(cores, loopCycles, m, delta)
}

// Cost functions.
var (
	// MaxDroop maximises the worst measured droop (the default).
	MaxDroop CostFunc = core.MaxDroop
	// DroopPerWatt maximises droop per watt of average power.
	DroopPerWatt CostFunc = core.DroopPerWatt
)

// PathWeighted rewards droop plus activity on chosen units (volts per
// issue-per-cycle), for steering AUDIT toward known-sensitive paths.
func PathWeighted(weights map[isa.Unit]float64) CostFunc {
	return core.PathWeighted(weights)
}

// Benchmarks returns the SPEC- and PARSEC-style comparison kernels.
func Benchmarks() []Workload { return workloads.All() }

// Manual stressmarks, parameterised by the resonance loop length in
// cycles (36 for the Bulldozer platform).
var (
	SM1   = workloads.SM1
	SM2   = workloads.SM2
	SMRes = workloads.SMRes
)

// SuiteScenario names one usage configuration for GenerateSuite.
type SuiteScenario = core.SuiteScenario

// DefaultSuite returns the §5.A.6 scenario matrix for a platform:
// per-thread-count resonant marks, an excitation mark, and a
// throttled-configuration mark.
func DefaultSuite(p Platform) []SuiteScenario { return core.DefaultSuite(p) }

// GenerateSuite runs AUDIT once per scenario — "a suite of stressmarks
// that can effectively exercise all significant usage scenarios".
func GenerateSuite(p Platform, scenarios []SuiteScenario, base Options) ([]*Stressmark, error) {
	return core.GenerateSuite(context.Background(), p, scenarios, base)
}

// HeteroStressmark is the per-thread output of GenerateHetero.
type HeteroStressmark = core.HeteroStressmark

// GenerateHetero runs AUDIT with an independent genome per thread —
// sibling threads may specialise (e.g. FP-heavy next to integer-heavy)
// to negotiate shared resources, an extension of the paper's
// homogeneous generation.
func GenerateHetero(opt Options) (*HeteroStressmark, error) {
	return core.GenerateHetero(context.Background(), opt)
}

// GenerateHeteroContext is GenerateHetero with cancellation, as
// GenerateContext is for Generate.
func GenerateHeteroContext(ctx context.Context, opt Options) (*HeteroStressmark, error) {
	return core.GenerateHetero(ctx, opt)
}

// LoadStressmark reads a checkpoint written by (*Stressmark).Save; the
// returned genome population can seed a follow-up Generate via
// Options.SeedGenomes to resume the search.
var LoadStressmark = core.LoadStressmark

// SearchCheckpoint is a mid-search snapshot written each generation
// when Options.CheckpointPath is set; LoadSearchCheckpoint reads one
// back for Options.Resume. IsSearchCheckpoint sniffs whether a JSON
// blob is a search checkpoint (vs a saved stressmark). Precheck makes
// the refusals Generate (hetero false) or GenerateHetero (hetero true)
// would make before any work, a damaged Resume checkpoint among them.
type SearchCheckpoint = core.SearchCheckpoint

var (
	LoadSearchCheckpoint = core.LoadSearchCheckpoint
	IsSearchCheckpoint   = core.IsSearchCheckpoint
	Precheck             = core.Precheck
)

// WriteFileAtomic writes a file via temp-and-rename so crashes never
// leave a truncated artifact in place of a good one.
var WriteFileAtomic = core.WriteFileAtomic

// LabFaults returns the default lab-fault model (transient capture
// losses, waveform dropouts, scope noise, launch skew, VRM drift,
// throttling episodes) seeded for reproducibility. Wire it into a
// search via Options.WrapRunner with NewFaultInjector.
func LabFaults(seed int64) FaultConfig { return faults.Lab(seed) }

// NewFaultInjector wraps r with the configured fault model.
func NewFaultInjector(cfg FaultConfig, r Runner) (*FaultInjector, error) {
	return faults.New(cfg, r)
}

// ParseProgram assembles NASM-flavoured text.
func ParseProgram(src string) (*Program, error) { return asm.Parse(src) }

// EncodeProgram serialises a program to the binary object format;
// DecodeProgram reverses it.
var (
	EncodeProgram = asm.Encode
	DecodeProgram = asm.Decode
)
