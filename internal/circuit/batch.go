package circuit

// TransientBatch advances several independent Transient states in
// lockstep over one shared Compiled system — the multi-lane replay
// kernel. State is held structure-of-arrays with the lane index minor
// (entry [i*lanes + l] is state element i of lane l), so each pass of
// the kernel loads every factored-matrix coefficient and element
// record once and applies it to all lanes: the matrix memory traffic
// a one-lane replay pays per candidate is amortized across the batch,
// and the lanes' independent dependency chains fill the latency
// bubbles that dominate a small serial triangular solve.
//
// Per lane, StepTraceBatch performs exactly the same floating-point
// operations in the same order as Transient.StepTrace would on that
// lane alone (the lane loop is always innermost, over shared
// coefficients), so every lane's trajectory is bit-identical to a
// serial replay regardless of batch width or composition.
type TransientBatch struct {
	cp    *Compiled
	lanes int

	// SoA state, lane-minor: [i*lanes + l].
	rhs     []float64
	x       []float64
	sources []float64
	capV    []float64
	capI    []float64
	indI    []float64
	time    []float64 // per lane
}

// NewBatch returns a batch of `lanes` states, each at the compiled DC
// operating point. Load lanes from live states (LoadLane) or state
// vectors (SetLaneStateVec) before stepping.
func (cp *Compiled) NewBatch(lanes int) *TransientBatch {
	if lanes < 1 {
		panic("circuit: batch needs at least one lane")
	}
	ne := len(cp.sources0)
	tb := &TransientBatch{
		cp:      cp,
		lanes:   lanes,
		rhs:     make([]float64, cp.n*lanes),
		x:       make([]float64, cp.n*lanes),
		sources: make([]float64, ne*lanes),
		capV:    make([]float64, ne*lanes),
		capI:    make([]float64, ne*lanes),
		indI:    make([]float64, ne*lanes),
		time:    make([]float64, lanes),
	}
	for l := 0; l < lanes; l++ {
		scatter(tb.x, cp.x0, lanes, l)
		scatter(tb.sources, cp.sources0, lanes, l)
		scatter(tb.capV, cp.capV0, lanes, l)
		scatter(tb.capI, cp.capI0, lanes, l)
		scatter(tb.indI, cp.indI0, lanes, l)
	}
	return tb
}

// Lanes returns the current number of lanes (shrinks via DropLane).
func (tb *TransientBatch) Lanes() int { return tb.lanes }

// scatter writes src into column l of the [len(src) × L] array dst.
func scatter(dst, src []float64, L, l int) {
	for i, v := range src {
		dst[i*L+l] = v
	}
}

// gather reads column l of the [len(dst) × L] array src into dst.
func gather(dst, src []float64, L, l int) {
	for i := range dst {
		dst[i] = src[i*L+l]
	}
}

// LoadLane copies t's live state (solution vector, companion history,
// source values, simulation time) into lane l. Both must share one
// Compiled.
func (tb *TransientBatch) LoadLane(l int, t *Transient) {
	if t.cp != tb.cp {
		panic("circuit: LoadLane across different compiled systems")
	}
	tb.checkLane(l)
	L := tb.lanes
	scatter(tb.x, t.x, L, l)
	scatter(tb.sources, t.sources, L, l)
	scatter(tb.capV, t.capV, L, l)
	scatter(tb.capI, t.capI, L, l)
	scatter(tb.indI, t.indI, L, l)
	tb.time[l] = t.time
}

// StoreLane copies lane l's state back into t. Both must share one
// Compiled. A LoadLane / StepTraceBatch / StoreLane round trip leaves
// t bit-identical to the equivalent serial StepTrace run.
func (tb *TransientBatch) StoreLane(l int, t *Transient) {
	if t.cp != tb.cp {
		panic("circuit: StoreLane across different compiled systems")
	}
	tb.checkLane(l)
	L := tb.lanes
	gather(t.x, tb.x, L, l)
	gather(t.sources, tb.sources, L, l)
	gather(t.capV, tb.capV, L, l)
	gather(t.capI, tb.capI, L, l)
	gather(t.indI, tb.indI, L, l)
	t.time = tb.time[l]
}

// SetLaneStateVec overwrites lane l's dynamic state from a vector laid
// out as by Transient.StateVec (sources and time are untouched — load
// them first via LoadLane).
func (tb *TransientBatch) SetLaneStateVec(l int, src []float64) {
	tb.checkLane(l)
	cp := tb.cp
	L := tb.lanes
	for i := 0; i < cp.n; i++ {
		tb.x[i*L+l] = src[i]
	}
	i := cp.n
	for oi := range cp.capOps {
		ei := cp.capOps[oi].ei
		tb.capV[ei*L+l] = src[i]
		tb.capI[ei*L+l] = src[i+1]
		i += 2
	}
	for oi := range cp.indOps {
		tb.indI[cp.indOps[oi].ei*L+l] = src[i]
		i++
	}
}

// LaneStateVec copies lane l's dynamic state into dst (length ≥
// StateDim), in Transient.StateVec's layout.
func (tb *TransientBatch) LaneStateVec(l int, dst []float64) {
	tb.checkLane(l)
	cp := tb.cp
	L := tb.lanes
	for i := 0; i < cp.n; i++ {
		dst[i] = tb.x[i*L+l]
	}
	i := cp.n
	for oi := range cp.capOps {
		ei := cp.capOps[oi].ei
		dst[i] = tb.capV[ei*L+l]
		dst[i+1] = tb.capI[ei*L+l]
		i += 2
	}
	for oi := range cp.indOps {
		dst[i] = tb.indI[cp.indOps[oi].ei*L+l]
		i++
	}
}

func (tb *TransientBatch) checkLane(l int) {
	if l < 0 || l >= tb.lanes {
		panic("circuit: lane index out of range")
	}
}

// DropLane retires lane l: the last lane's state moves into slot l
// (swap-remove, the caller mirrors the same swap in its own lane
// bookkeeping) and the batch shrinks to lanes-1 columns in place.
// Replay uses it when a candidate's stream ends before its
// batchmates'.
func (tb *TransientBatch) DropLane(l int) {
	tb.checkLane(l)
	L := tb.lanes
	tb.rhs = dropCol(tb.rhs, L, l)
	tb.x = dropCol(tb.x, L, l)
	tb.sources = dropCol(tb.sources, L, l)
	tb.capV = dropCol(tb.capV, L, l)
	tb.capI = dropCol(tb.capI, L, l)
	tb.indI = dropCol(tb.indI, L, l)
	tb.time[l] = tb.time[L-1]
	tb.time = tb.time[:L-1]
	tb.lanes = L - 1
}

// dropCol removes column l from a row-major [rows × L] array in place:
// column L-1 first replaces column l, then the rows repack at stride
// L-1. copy handles the overlapping moves (dst is never ahead of src).
func dropCol(a []float64, L, l int) []float64 {
	rows := len(a) / L
	for i := 0; i < rows; i++ {
		a[i*L+l] = a[i*L+L-1]
	}
	w := 0
	for i := 0; i < rows; i++ {
		copy(a[w:w+L-1], a[i*L:i*L+L-1])
		w += L - 1
	}
	return a[:rows*(L-1)]
}

// StepTraceBatch advances every lane n steps in one kernel pass: at
// step s, lane l drives source ref with src[l][s]*mul[l]/div[l] +
// add[l] and records node nd's voltage into dst[l][s]. The per-lane
// arithmetic replicates Transient.StepTrace exactly (same addends,
// same order, shared precomputed constants), so each lane's output and
// end state are bit-identical to a serial StepTrace of that lane.
//
// A single lane runs Transient.StepTrace itself: at one lane the
// lane-minor layout is the scalar layout, so a Transient view over the
// batch arrays needs no copy, and a one-lane replay (or the last
// survivor of a pass) costs what the serial kernel costs instead of
// paying the lane loops' overhead.
func (tb *TransientBatch) StepTraceBatch(nd Node, ref int, dst, src [][]float64, mul, div, add []float64, n int) {
	cp := tb.cp
	L := tb.lanes
	if L == 0 || n == 0 {
		return
	}
	if len(dst) < L || len(src) < L || len(mul) < L || len(div) < L || len(add) < L {
		panic("circuit: StepTraceBatch lane parameters shorter than batch")
	}
	for l := 0; l < L; l++ {
		if len(src[l]) < n || len(dst[l]) < n {
			panic("circuit: StepTraceBatch lane buffer shorter than n")
		}
	}
	if L == 1 {
		t := Transient{cp: cp, rhs: tb.rhs, x: tb.x, sources: tb.sources,
			capV: tb.capV, capI: tb.capI, indI: tb.indI, time: tb.time[0]}
		t.StepTrace(nd, ref, dst[0], src[0][:n], mul[0], div[0], add[0])
		tb.time[0] = t.time
		return
	}
	ops, capOps, indOps := cp.stepOps, cp.capOps, cp.indOps
	b, x := tb.rhs, tb.x
	capV, capI, indI, sources := tb.capV, tb.capI, tb.indI, tb.sources
	lu := cp.lu
	h := cp.h
	di := int(nd) - 1
	for s := 0; s < n; s++ {
		for l := 0; l < L; l++ {
			sources[ref*L+l] = src[l][s]*mul[l]/div[l] + add[l]
		}
		for i := range b {
			b[i] = 0
		}
		for oi := range ops {
			op := &ops[oi]
			switch op.kind {
			case kindC:
				cv := capV[op.ei*L : op.ei*L+L]
				ci := capI[op.ei*L : op.ei*L+L]
				for l := 0; l < L; l++ {
					ieq := op.g*cv[l] + ci[l]
					if op.ia >= 0 {
						b[op.ia*L+l] += ieq
					}
					if op.ib >= 0 {
						b[op.ib*L+l] -= ieq
					}
				}
			case kindL:
				ii := indI[op.ei*L : op.ei*L+L]
				bb := b[op.br*L : op.br*L+L]
				for l := 0; l < L; l++ {
					var vp float64
					if op.ia >= 0 {
						vp = x[op.ia*L+l]
					}
					if op.ib >= 0 {
						vp -= x[op.ib*L+l]
					}
					bb[l] = -op.g*ii[l] - vp
				}
			case kindV:
				copy(b[op.br*L:op.br*L+L], sources[op.ei*L:op.ei*L+L])
			default: // kindI
				sv := sources[op.ei*L : op.ei*L+L]
				for l := 0; l < L; l++ {
					v := sv[l]
					if op.ia >= 0 {
						b[op.ia*L+l] -= v
					}
					if op.ib >= 0 {
						b[op.ib*L+l] += v
					}
				}
			}
		}
		lu.solveBatch(b, x, L)
		for l := 0; l < L; l++ {
			tb.time[l] += h
		}
		for oi := range capOps {
			op := &capOps[oi]
			cv := capV[op.ei*L : op.ei*L+L]
			ci := capI[op.ei*L : op.ei*L+L]
			for l := 0; l < L; l++ {
				var vNew float64
				if op.ia >= 0 {
					vNew = x[op.ia*L+l]
				}
				if op.ib >= 0 {
					vNew -= x[op.ib*L+l]
				}
				iNew := op.g*(vNew-cv[l]) - ci[l]
				cv[l], ci[l] = vNew, iNew
			}
		}
		for oi := range indOps {
			op := &indOps[oi]
			copy(indI[op.ei*L:op.ei*L+L], x[op.br*L:op.br*L+L])
		}
		if di >= 0 {
			xv := x[di*L : di*L+L]
			for l := 0; l < L; l++ {
				dst[l][s] = xv[l]
			}
		} else {
			for l := 0; l < L; l++ {
				dst[l][s] = 0
			}
		}
	}
}
