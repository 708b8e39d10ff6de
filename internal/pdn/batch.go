package pdn

import "repro/internal/circuit"

// GroupLanes is the exact kernel's group width: StepTraceBatch steps a
// batch in groups of this many lanes, and a partial group costs what a
// full one costs (circuit.GroupLanes).
const GroupLanes = circuit.GroupLanes

// Batch is the multi-lane PDN replay kernel: up to Lanes independent
// network states advancing in lockstep over one Compiled system, each
// lane bit-identical to a serial PDN.StepTrace of the same state (see
// circuit.TransientBatch). Every testbed replay runs as a lane of one:
// a whole generation's candidate traces per pass over the shared
// factorization, and a single Run as a one-lane pass (which runs the
// serial kernel).
type Batch struct {
	cp *Compiled
	tb *circuit.TransientBatch
}

// NewBatch returns a batch of `lanes` states at the network's DC
// operating point.
func (cp *Compiled) NewBatch(lanes int) *Batch {
	return &Batch{cp: cp, tb: cp.ccp.NewBatch(lanes)}
}

// Lanes returns the current number of lanes (shrinks via DropLane).
func (b *Batch) Lanes() int { return b.tb.Lanes() }

// LoadLane copies p's live state (including its regulator set-point)
// into lane l; p must come from the same Compiled handle.
func (b *Batch) LoadLane(l int, p *PDN) {
	if p.cp != b.cp {
		panic("pdn: LoadLane across different compiled networks")
	}
	b.tb.LoadLane(l, p.tr)
}

// DropLane retires lane l by swap-remove: the last lane moves into
// slot l and the batch narrows by one (callers mirror the swap in
// their lane bookkeeping).
func (b *Batch) DropLane(l int) { b.tb.DropLane(l) }

// StepTraceBatch advances every lane n steps in one kernel pass: at
// step s, lane l draws sink current src[l][s]*mul[l]/div[l] + add[l]
// amps and records its die voltage into dst[l][s]. Per lane the
// arithmetic is bit-identical to PDN.StepTrace with the same
// parameters.
func (b *Batch) StepTraceBatch(dst, src [][]float64, mul, div, add []float64, n int) {
	b.tb.StepTraceBatch(b.cp.die, b.cp.sinkRef, dst, src, mul, div, add, n)
}
