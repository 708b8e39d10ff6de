package circuit

// The fused exact kernel runs every step of a replay chunk for one
// 8-lane group in a single assembly call (asm_amd64.s). Compile lays
// the step out as records over a group scratch of [rows × 8] float64s,
// one 64-byte row per state value and lane slot:
//
//	rows 0..n−1     x, the solution vector
//	row  n          the zero row: +0 in every slot, never written
//	rows n+1..2n    b, the right-hand side (scratch, zeroed every step)
//	row  2n+1       the dump row: absorbs stamps into ground
//	rows 2n+2..     the source and companion rows the records name,
//	                then time, mul, div and add
//
// Every record holds byte offsets into that scratch, so the stamp has
// no branches: a terminal tied to ground reads the zero row (x − (+0)
// and (+0) − x are what the Go kernel's branches compute, for every
// value but a signaling NaN, which no arithmetic result is) or writes
// the dump row, which nothing reads. Per slot the kernel performs
// exactly the Go batch kernel's floating-point operations in the same
// order, so every lane stays bit-identical to Transient.StepTrace.

// GroupLanes is the fused kernel's group width: two ymm registers per
// scratch row. One call steps a whole group, padded or not, so callers
// sizing multi-lane passes cut them in whole groups; the Go lane loops
// (stepGo, solveBatch) are register-blocked by the same eight.
const GroupLanes = 8

// rowBytes is one scratch row, GroupLanes float64s.
const rowBytes = GroupLanes * 8

// fusedStamp is one right-hand-side stamp in element order; a–d are
// scratch byte offsets and kind selects the form:
//
//	C: ieq = g·[a] + [b]; [c] += ieq; [d] −= ieq   (g = 2C/h)
//	L: [d] = g·[a] − ([b] − [c])                     (g = −2L/h)
//	V: [d] = [a]
//	I: [c] −= [a]; [d] += [a]
type fusedStamp struct {
	kind       int64
	g          float64
	a, b, c, d int64
}

// fusedRow is one substitution row: it starts from row src, subtracts
// its entries' products, and stores into row dst (back rows divide by
// diag first). The rows walk one flat entry list in order.
type fusedRow struct {
	src, dst int64
	n        int64
	diag     float64
}

// fusedEnt is one nonzero factor coefficient and the x row it scales.
type fusedEnt struct {
	off int64
	val float64
}

// fusedCap updates one capacitor's history:
// v' = [xa] − [xb]; [i] = g·(v' − [v]) − [i]; [v] = v'.
type fusedCap struct {
	g            float64
	xa, xb, v, i int64
}

// fusedInd copies an inductor's branch current, row src, into its
// history row dst.
type fusedInd struct{ dst, src int64 }

// Slot arrays: fusedSlot.arr indexes the batch arrays in this order.
const (
	arrX = iota
	arrSources
	arrCapV
	arrCapI
	arrIndI
	arrTime
	arrMul
	arrDiv
	arrAdd
)

// fusedSlot ties scratch row row to row ei of a lane-minor batch array
// (the per-lane arrays time, mul, div and add have the one row 0).
type fusedSlot struct {
	arr, ei, row int
}

// fusedPlan is a Compiled system's fused step.
type fusedPlan struct {
	rows   int // scratch rows
	stamps []fusedStamp
	lu     []fusedRow // n forward rows, then n back rows from n−1 down
	ents   []fusedEnt
	caps   []fusedCap
	inds   []fusedInd

	// slots lists every scratch row a pass gathers before a group's
	// call; the first nOut are scattered back after it (mul, div and
	// add are inputs only).
	slots []fusedSlot
	nOut  int

	bOff, bEnd  int64   // b rows and the dump row, zeroed every step
	drive, time int64   // mul row (div and add follow it) and time row
	srcRow      []int64 // per V or I element: its source row
}

// buildFused compiles the step records from the Go kernel's stepOps,
// capOps and indOps, in their orders, and the factor's row lists.
func (cp *Compiled) buildFused() *fusedPlan {
	n := cp.n
	if n == 0 {
		return nil // no rows: the kernel's row loops need at least one
	}
	fp := &fusedPlan{
		bOff:   int64(n+1) * rowBytes,
		bEnd:   int64(2*n+2) * rowBytes,
		srcRow: make([]int64, len(cp.sources0)),
	}
	next := 2*n + 2 // the first row after the dump row
	slot := func(arr, ei int) int64 {
		fp.slots = append(fp.slots, fusedSlot{arr: arr, ei: ei, row: next})
		next++
		return int64(next-1) * rowBytes
	}
	xRow := func(i int) int64 {
		if i < 0 {
			return int64(n) * rowBytes // zero row
		}
		return int64(i) * rowBytes
	}
	bRow := func(i int) int64 {
		if i < 0 {
			return int64(2*n+1) * rowBytes // dump row
		}
		return int64(n+1+i) * rowBytes
	}
	for i := 0; i < n; i++ {
		fp.slots = append(fp.slots, fusedSlot{arr: arrX, ei: i, row: i})
	}
	ne := len(cp.sources0)
	capV, capI, indI := make([]int64, ne), make([]int64, ne), make([]int64, ne)
	for _, op := range cp.stepOps {
		switch op.kind {
		case kindC:
			capV[op.ei], capI[op.ei] = slot(arrCapV, op.ei), slot(arrCapI, op.ei)
			fp.stamps = append(fp.stamps, fusedStamp{kind: int64(kindC), g: op.g,
				a: capV[op.ei], b: capI[op.ei], c: bRow(op.ia), d: bRow(op.ib)})
		case kindL:
			indI[op.ei] = slot(arrIndI, op.ei)
			fp.stamps = append(fp.stamps, fusedStamp{kind: int64(kindL), g: -op.g,
				a: indI[op.ei], b: xRow(op.ia), c: xRow(op.ib), d: bRow(op.br)})
		case kindV:
			fp.srcRow[op.ei] = slot(arrSources, op.ei)
			fp.stamps = append(fp.stamps, fusedStamp{kind: int64(kindV), a: fp.srcRow[op.ei], d: bRow(op.br)})
		default: // kindI
			fp.srcRow[op.ei] = slot(arrSources, op.ei)
			fp.stamps = append(fp.stamps, fusedStamp{kind: int64(kindI),
				a: fp.srcRow[op.ei], c: bRow(op.ia), d: bRow(op.ib)})
		}
	}
	for _, op := range cp.capOps {
		fp.caps = append(fp.caps, fusedCap{g: op.g, xa: xRow(op.ia), xb: xRow(op.ib), v: capV[op.ei], i: capI[op.ei]})
	}
	for _, op := range cp.indOps {
		fp.inds = append(fp.inds, fusedInd{dst: indI[op.ei], src: xRow(op.br)})
	}
	fp.time = slot(arrTime, 0)
	fp.nOut = len(fp.slots)
	fp.drive = slot(arrMul, 0)
	slot(arrDiv, 0)
	slot(arrAdd, 0)
	fp.rows = next

	f := cp.lu
	row := func(src, dst int64, ents []luEntry, diag float64) {
		fp.lu = append(fp.lu, fusedRow{src: src, dst: dst, n: int64(len(ents)), diag: diag})
		for _, e := range ents {
			fp.ents = append(fp.ents, fusedEnt{off: xRow(e.col), val: e.val})
		}
	}
	for i, p := range f.perm {
		row(bRow(p), xRow(i), f.lower[i], 0)
	}
	for i := n - 1; i >= 0; i-- {
		row(xRow(i), xRow(i), f.upper[i], f.diag[i])
	}
	return fp
}

// groupArrays returns the batch arrays fusedSlot.arr indexes, with
// the call's per-lane drive parameters.
func (tb *TransientBatch) groupArrays(mul, div, add []float64) [9][]float64 {
	return [9][]float64{tb.x, tb.sources, tb.capV, tb.capI, tb.indI, tb.time, mul, div, add}
}

// loadGroup gathers lanes js into the group scratch, slot k from lane
// js[k]: a padded tail repeats its last real lane.
func (tb *TransientBatch) loadGroup(arrs *[9][]float64, js *[GroupLanes]int) {
	g, L := tb.group, tb.lanes
	for _, s := range tb.cp.fused.slots {
		a := arrs[s.arr][s.ei*L:]
		r := g[s.row*GroupLanes : s.row*GroupLanes+GroupLanes]
		for k, j := range js {
			r[k] = a[j]
		}
	}
}

// storeGroup scatters the group's first `real` slots back to lanes
// l0.. of every array the kernel writes.
func (tb *TransientBatch) storeGroup(arrs *[9][]float64, l0, real int) {
	g, L, fp := tb.group, tb.lanes, tb.cp.fused
	for _, s := range fp.slots[:fp.nOut] {
		a := arrs[s.arr][s.ei*L+l0:]
		copy(a[:real], g[s.row*GroupLanes:])
	}
}
