package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/testbed"
)

// ResonanceSweep finds the loop length (in cycles) that maximises the
// measured droop, which is AUDIT's resonance-frequency detector (§3):
// "AUDIT constructs a trivial stressmark consisting of a loop of
// high-power instructions and NOP instructions. It varies the number of
// cycles in the loop to determine the length that produces the
// worst-case droop." Because board components vary, this is re-run
// whenever the processor or board changes (§5.C).
type ResonanceSweep struct {
	Platform testbed.Platform
	// Runner, when non-nil, measures the probes: the caller's compiled
	// Platform (shared with its GA loop) or Platform itself, the
	// reference loop. When nil, the sweep compiles Platform.
	Runner testbed.Runner
	// Threads is how many aligned copies to run (one per module).
	Threads int
	// MeasureCycles per probe point.
	MeasureCycles uint64
	// WarmupCycles excluded from droop statistics.
	WarmupCycles uint64
}

// SweepPoint is one probe of the sweep.
type SweepPoint struct {
	LoopCycles int
	DroopV     float64
	// FreqHz is the loop repetition frequency loopCycles implies.
	FreqHz float64
}

// ProbeProgram builds the trivial HP/NOP loop for a target loop length:
// half the cycles run two high-power FP ops + NOPs per cycle
// (decode-bound pattern), half run NOPs. useFMA selects FMA where the
// chip supports it, packed multiplies otherwise.
func ProbeProgram(loopCycles, width int, iters int64, useFMA bool) (*asm.Program, error) {
	if loopCycles < 4 {
		return nil, fmt.Errorf("core: probe loop of %d cycles too short", loopCycles)
	}
	h := loopCycles / 2
	l := loopCycles - h - 1 // one cycle budget for dec+jnz
	b := asm.NewBuilder(fmt.Sprintf("probe-%dcyc", loopCycles))
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, iters)
	b.Label("loop")
	for i := 0; i < h; i++ {
		if useFMA {
			b.RRR("vfmadd132pd", isa.XMM(i%numXMMAcc), xmmSrc(uint8(i)), xmmSrc(uint8(i+1)))
			b.RRR("vfmadd132pd", isa.XMM((i+6)%numXMMAcc), xmmSrc(uint8(i+2)), xmmSrc(uint8(i+3)))
		} else {
			b.RR("mulpd", isa.XMM(i%numXMMAcc), xmmSrc(uint8(i)))
			b.RR("addpd", isa.XMM((i+6)%numXMMAcc), xmmSrc(uint8(i+2)))
		}
		b.Nop(width - 2)
	}
	b.Nop(l * width)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	return b.Build()
}

// Run probes loop lengths in [lo, hi] with the given step and returns
// every point plus the best one.
func (rs ResonanceSweep) Run(lo, hi, step int) ([]SweepPoint, SweepPoint, error) {
	if lo < 4 || hi < lo || step < 1 {
		return nil, SweepPoint{}, fmt.Errorf("core: bad sweep range [%d,%d] step %d", lo, hi, step)
	}
	threads := rs.Threads
	if threads < 1 {
		threads = rs.Platform.Chip.Modules
	}
	measure := rs.MeasureCycles
	if measure == 0 {
		measure = 12000
	}
	warmup := rs.WarmupCycles
	if warmup == 0 {
		warmup = 3000
	}
	r := rs.Runner
	if r == nil {
		cp, err := rs.Platform.Compile()
		if err != nil {
			return nil, SweepPoint{}, err
		}
		r = cp
	}
	var rcs []testbed.RunConfig
	for n := lo; n <= hi; n += step {
		prog, err := ProbeProgram(n, rs.Platform.Chip.DecodeWidth, 1<<40, rs.Platform.Chip.HasFMA)
		if err != nil {
			return nil, SweepPoint{}, err
		}
		specs, err := testbed.SpreadPlacement(rs.Platform.Chip, prog, threads)
		if err != nil {
			return nil, SweepPoint{}, err
		}
		rcs = append(rcs, testbed.RunConfig{
			Threads:      specs,
			MaxCycles:    warmup + measure,
			WarmupCycles: warmup,
		})
	}
	ms, errs := measureProbes(r, rcs)
	var points []SweepPoint
	best := SweepPoint{}
	for i, m := range ms {
		if errs[i] != nil {
			return nil, SweepPoint{}, errs[i]
		}
		n := lo + i*step
		p := SweepPoint{
			LoopCycles: n,
			DroopV:     m.MaxDroopV,
			FreqHz:     rs.Platform.Chip.ClockHz / float64(n),
		}
		points = append(points, p)
		if p.DroopV > best.DroopV {
			best = p
		}
	}
	return points, best, nil
}

// measureProbes measures the sweep's probes: as one batch when r
// batches, so their replays share multi-lane passes, and one Run each
// otherwise (a Platform, the reference loop). The batch uses one
// worker, a constant, so its passes and their counters do not follow
// GOMAXPROCS.
func measureProbes(r testbed.Runner, rcs []testbed.RunConfig) ([]*testbed.Measurement, []error) {
	if br, ok := r.(testbed.BatchRunner); ok {
		return br.MeasureBatch(rcs, 0, 1)
	}
	ms := make([]*testbed.Measurement, len(rcs))
	errs := make([]error, len(rcs))
	for i, rc := range rcs {
		ms[i], errs[i] = r.Run(rc)
		if errs[i] != nil {
			break
		}
	}
	return ms, errs
}
