package pdn

// Reduced-order replay over the PDN: thin wrappers binding the
// circuit-level ROM (see internal/circuit/rom.go) to this package's
// fixed (die node, sink source) measurement pair. The ROM advances a
// handful of decoupled modal sections per cycle instead of the dense
// LU substitution, trading bit-identity for a calibrated worst-case
// die-voltage error bound (ROM.ErrPerAmpV per amp of drive). Callers
// gate it on a stated voltage tolerance; the exact kernel remains the
// oracle and the default.

import "repro/internal/circuit"

// ROM returns the network's compiled reduced-order replay model,
// building it on first call (eigendecomposition + calibration against
// the exact kernel, a one-time platform-compile cost). A non-nil error
// is permanent for this Compiled: the network's modal decomposition
// failed validation and replay must use the exact kernel.
func (cp *Compiled) ROM() (*circuit.ROM, error) {
	cp.romOnce.Do(func() {
		cp.rom, cp.romErr = cp.ccp.CompileROM(cp.die, cp.sinkRef)
	})
	return cp.rom, cp.romErr
}

// ROMBatch advances several independent reduced-order replays in
// lockstep over one network, mirroring Batch's lane discipline
// (LoadLane / swap-remove DropLane) so the testbed's lane driver runs
// either kernel through the same bookkeeping. A one-lane batch is the
// serial ROM replay.
type ROMBatch struct {
	cp *Compiled
	rb *circuit.ROMBatch
}

// NewROMBatch returns a ROM batch of `lanes` unloaded lanes; load each
// via LoadLane before stepping. Fails iff ROM() fails.
func (cp *Compiled) NewROMBatch(lanes int) (*ROMBatch, error) {
	r, err := cp.ROM()
	if err != nil {
		return nil, err
	}
	return &ROMBatch{cp: cp, rb: r.NewBatch(lanes)}, nil
}

// Lanes returns the current number of lanes (shrinks via DropLane).
func (b *ROMBatch) Lanes() int { return b.rb.Lanes() }

// LoadLane folds p's current state plus a constant `add` amps on the
// sink into lane l; p must come from the same Compiled handle.
func (b *ROMBatch) LoadLane(l int, p *PDN, add float64) {
	if p.cp != b.cp {
		panic("pdn: ROM LoadLane across different compiled networks")
	}
	b.rb.LoadLane(l, p.tr, add)
}

// SetLaneModal loads lane l directly from a modal deviation state and
// folded constant term — the periodic probe path's lane loader, which
// shares one fold across its reference + unit-perturbation lanes.
func (b *ROMBatch) SetLaneModal(l int, mu []float64, vstar float64) {
	b.rb.SetLaneModal(l, mu, vstar)
}

// LaneModal copies lane l's modal deviation state into dst (length ≥
// ROM().Order()) and returns the lane's folded constant term —
// together the lane's complete dynamic state, so a LaneModal /
// SetLaneModal round trip resumes a replay bit-identically.
func (b *ROMBatch) LaneModal(l int, dst []float64) float64 {
	return b.rb.LaneModal(l, dst)
}

// DropLane retires lane l by swap-remove (the last lane moves into
// slot l), mirroring Batch.DropLane.
func (b *ROMBatch) DropLane(l int) { b.rb.DropLane(l) }

// StepTraceBatch advances every lane n steps: at step s, lane l draws
// sink current src[l][s]*mul[l]/div[l] amps above its folded constant
// level and records its die voltage into dst[l][s]. Each lane is
// bit-identical to a one-lane replay at any batch width (not to the
// exact kernel — see ROM.ErrPerAmpV).
func (b *ROMBatch) StepTraceBatch(dst, src [][]float64, mul, div []float64, n int) {
	b.rb.StepTraceBatch(dst, src, mul, div, n)
}

// PeriodicSteadyState solves (I − A)·x = b in closed form per modal
// section, for a block-diagonal period map with column k at a[k*m:]
// and sections per ROM().Sections(). See circuit.PeriodicSteadyState.
func PeriodicSteadyState(sections []int, a, b, x []float64) error {
	return circuit.PeriodicSteadyState(sections, a, b, x)
}

// SectionContractions returns each modal section's spectral norm of
// the block-diagonal period map — its exact per-period Euclidean decay
// factor. See circuit.SectionContractions.
func SectionContractions(sections []int, a []float64) []float64 {
	return circuit.SectionContractions(sections, a)
}
