package testbed

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// FailureModel decides when a droop becomes a timing error. Each
// execution-unit kind has a critical voltage: if the die voltage falls
// below it *while that unit is active*, the exercised path misses
// timing and the run fails. This captures the paper's central §5.A.4
// finding — droop magnitude alone does not predict the failure point;
// which paths are being exercised when the droop arrives matters. SM2
// fails at a high supply voltage despite a benchmark-sized droop
// because it exercises the most voltage-sensitive paths.
type FailureModel struct {
	// CriticalV[u] is the die voltage below which unit u fails while
	// active. Zero disables checking for that unit.
	CriticalV [isa.NumUnits]float64
}

// BulldozerFailureModel returns per-unit critical voltages for the
// primary system. The divider and load/store paths are the most
// voltage-sensitive (longest logic depth per cycle); plain ALU paths
// the least.
func BulldozerFailureModel() FailureModel {
	var f FailureModel
	f.CriticalV[isa.UnitALU] = 1.060
	f.CriticalV[isa.UnitAGU] = 1.062
	f.CriticalV[isa.UnitIMul] = 1.082
	f.CriticalV[isa.UnitIDiv] = 1.118
	f.CriticalV[isa.UnitFPU] = 1.090
	f.CriticalV[isa.UnitLSU] = 1.093
	f.CriticalV[isa.UnitBranch] = 1.055
	return f
}

// PhenomFailureModel returns critical voltages for the 45 nm part
// (nominal 1.30 V, slower process, proportionally higher thresholds).
func PhenomFailureModel() FailureModel {
	var f FailureModel
	f.CriticalV[isa.UnitALU] = 1.105
	f.CriticalV[isa.UnitAGU] = 1.108
	f.CriticalV[isa.UnitIMul] = 1.125
	f.CriticalV[isa.UnitIDiv] = 1.155
	f.CriticalV[isa.UnitFPU] = 1.135
	f.CriticalV[isa.UnitLSU] = 1.140
	f.CriticalV[isa.UnitBranch] = 1.100
	return f
}

// Check returns whether the cycle failed and, if so, on which unit.
func (f FailureModel) Check(vDie float64, res *cpu.CycleResult) (bool, isa.Unit) {
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		if res.UnitIssues[u] > 0 && f.CriticalV[u] > 0 && vDie < f.CriticalV[u] {
			return true, u
		}
	}
	return false, isa.UnitNone
}

// ceilingV returns the highest enabled critical voltage: no die
// voltage at or above it (and no NaN) can fail any unit.
func (f FailureModel) ceilingV() float64 {
	var c float64
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		if f.CriticalV[u] > c {
			c = f.CriticalV[u]
		}
	}
	return c
}

// failMask returns the trace-packed issue mask (8 bits per unit, see
// packIssues) of the units that fail if active at die voltage vDie: a
// packed issue word q fails iff q&failMask(vDie) != 0. Same units,
// same thresholds and same strict comparison as Check.
func (f FailureModel) failMask(vDie float64) uint64 {
	var mask uint64
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		if f.CriticalV[u] > 0 && vDie < f.CriticalV[u] {
			mask |= 0xff << (8 * uint(u))
		}
	}
	return mask
}

// FailureStep is the supply-voltage decrement of the paper's procedure
// (§5.A.4): "we reduce the operating voltage in decrements of 12.5 mV
// until failure occurs."
const FailureStep = 0.0125

// FindFailureVoltage lowers the supply in FailureStep decrements,
// re-running the workload at each point, and returns the highest supply
// voltage at which the run fails. Higher is "better" for a stressmark —
// it means the program kills the part while more margin remains. floor
// bounds the search; if nothing fails above it, floor is returned with
// ok=false.
func (p Platform) FindFailureVoltage(rc RunConfig, floor float64) (float64, bool, error) {
	return findFailureVoltage(p, p.PDN.VNom, rc, floor)
}

// findFailureVoltage is the failure ladder on any runner of a platform
// with nominal supply vNom.
func findFailureVoltage(r Runner, vNom float64, rc RunConfig, floor float64) (float64, bool, error) {
	if floor <= 0 || floor >= vNom {
		return 0, false, fmt.Errorf("testbed: floor %g out of range", floor)
	}
	for v := vNom; v >= floor; v -= FailureStep {
		cfg := rc
		cfg.SupplyVolts = v
		m, err := r.Run(cfg)
		if err != nil {
			return 0, false, err
		}
		if m.Failed {
			return v, true, nil
		}
	}
	return floor, false, nil
}
