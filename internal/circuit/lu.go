// Package circuit is a small linear-circuit simulator: modified nodal
// analysis over R/L/C elements with voltage and current sources,
// trapezoidal transient integration, and complex-valued AC analysis.
// It plays the role HSPICE plays in the paper's simulation path
// (Fig. 5): the per-cycle current profile from the CPU model becomes a
// current sink across a lumped RLC model of the power-delivery network,
// and the solver produces the supply-voltage waveform.
package circuit

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when the system matrix cannot be factored,
// which for well-formed circuits indicates a floating node or a loop of
// ideal sources.
var ErrSingular = errors.New("circuit: singular matrix")

// luReal is an LU factorisation with partial pivoting for the
// real-valued transient system. The matrix is factored once per time
// step size and reused for every step, which is what makes million-step
// transients cheap.
//
// Factorisation is dense, but substitution walks only the factor's
// nonzeros: factorReal records, per row, the strictly-lower and
// strictly-upper entries that are not exactly zero (ascending column)
// plus U's diagonal. A shipped PDN factors to 15×15 with 64 of its 210
// off-diagonal entries nonzero, so every solve skips about 70% of the
// dense multiply-subtracts. Per lane the floating-point operation
// sequence is the dense one minus its s −= 0·x[j] terms; for finite x
// such a term changes s only when s is an exact zero, and then only
// its sign, so every nonzero result is bit-identical to the dense
// substitution (DESIGN.md §16).
type luReal struct {
	n    int
	lu   []float64 // n×n, row-major, L (unit diagonal) and U packed, zeros included
	perm []int

	// lower[i] and upper[i] are row i's nonzero strictly-lower and
	// strictly-upper entries, ascending column, all slicing one backing
	// array; diag is U's diagonal.
	lower, upper [][]luEntry
	diag         []float64
}

// luEntry is one nonzero off-diagonal coefficient of the factor.
type luEntry struct {
	col int
	val float64
}

func factorReal(a []float64, n int) (*luReal, error) {
	lu := append([]float64(nil), a...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	// Record each row's nonzero off-diagonal entries. The backing array
	// is sized up front so the row slices taken while filling it stay
	// valid.
	nz := 0
	for i, v := range lu {
		if i/n != i%n && v != 0 {
			nz++
		}
	}
	ents := make([]luEntry, 0, nz)
	nonzeros := func(i, j0, j1 int) []luEntry {
		start := len(ents)
		for j := j0; j < j1; j++ {
			if v := lu[i*n+j]; v != 0 {
				ents = append(ents, luEntry{col: j, val: v})
			}
		}
		return ents[start:len(ents):len(ents)]
	}
	f := &luReal{n: n, lu: lu, perm: perm,
		lower: make([][]luEntry, n), upper: make([][]luEntry, n), diag: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.lower[i] = nonzeros(i, 0, i)
		f.upper[i] = nonzeros(i, i+1, n)
		f.diag[i] = lu[i*n+i]
	}
	return f, nil
}

// solve solves LUx = Pb into x; x must not alias b.
func (f *luReal) solve(b, x []float64) {
	// Forward substitution (unit lower), reading the permuted b in place.
	for i, row := range f.lower {
		s := b[f.perm[i]]
		for _, e := range row {
			s -= e.val * x[e.col]
		}
		x[i] = s
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for _, e := range f.upper[i] {
			s -= e.val * x[e.col]
		}
		x[i] = s / f.diag[i]
	}
}

// solveBatch solves LUx = Pb for L right-hand sides held lane-minor
// (b[i*L + l] is row i of lane l), writing x in the same layout; x
// must not alias b. Per lane the floating-point operation sequence is
// exactly solve's — row-oriented substitution over the same nonzero
// entries, column ascending, one final division — so every lane's
// solution is bit-identical to a serial solve. Lanes are tiled into
// register blocks of 8 and 4 whose accumulators live across a row's
// whole coefficient sweep: each coefficient is loaded once per block
// instead of once per lane, and the block's independent
// multiply-subtract chains keep the FP units busy where the serial
// solve's single chain stalls on latency. It is the Go multi-lane
// kernel's solve; the fused AVX2 kernel runs the same substitution
// inside its step (fused.go).
func (f *luReal) solveBatch(b, x []float64, L int) {
	// Forward substitution (unit lower): row i starts from row perm[i]
	// of b.
	for i, p := range f.perm {
		sweepRow(f.lower[i], x, b[p*L:p*L+L], x[i*L:i*L+L], L)
	}
	// Back substitution. Dividing after the sweep's store is the same
	// rounded op on the same value as dividing the accumulator.
	for i := f.n - 1; i >= 0; i-- {
		xi := x[i*L : i*L+L]
		sweepRow(f.upper[i], x, xi, xi, L)
		d := f.diag[i]
		for l := range xi {
			xi[l] /= d
		}
	}
}

// sweepRow computes, for every lane l of one substitution row,
// dst[l] = src[l] − Σ_e e.val·x[e.col*L+l] with the entries in order.
// src and dst may be the same row.
func sweepRow(row []luEntry, x, src, dst []float64, L int) {
	l := 0
	for ; l+8 <= L; l += 8 {
		sq := src[l : l+8 : l+8]
		s0, s1, s2, s3 := sq[0], sq[1], sq[2], sq[3]
		s4, s5, s6, s7 := sq[4], sq[5], sq[6], sq[7]
		for _, e := range row {
			o := e.col*L + l
			xq := x[o : o+8 : o+8]
			m := e.val
			s0 -= m * xq[0]
			s1 -= m * xq[1]
			s2 -= m * xq[2]
			s3 -= m * xq[3]
			s4 -= m * xq[4]
			s5 -= m * xq[5]
			s6 -= m * xq[6]
			s7 -= m * xq[7]
		}
		dq := dst[l : l+8 : l+8]
		dq[0], dq[1], dq[2], dq[3] = s0, s1, s2, s3
		dq[4], dq[5], dq[6], dq[7] = s4, s5, s6, s7
	}
	for ; l+4 <= L; l += 4 {
		sq := src[l : l+4 : l+4]
		s0, s1, s2, s3 := sq[0], sq[1], sq[2], sq[3]
		for _, e := range row {
			o := e.col*L + l
			xq := x[o : o+4 : o+4]
			m := e.val
			s0 -= m * xq[0]
			s1 -= m * xq[1]
			s2 -= m * xq[2]
			s3 -= m * xq[3]
		}
		dq := dst[l : l+4 : l+4]
		dq[0], dq[1], dq[2], dq[3] = s0, s1, s2, s3
	}
	for ; l < L; l++ {
		s := src[l]
		for _, e := range row {
			s -= e.val * x[e.col*L+l]
		}
		dst[l] = s
	}
}

// solveComplex solves a dense complex system Ax=b in place with partial
// pivoting (Gaussian elimination). AC sweeps factor a fresh matrix per
// frequency point, so no reusable factorisation is kept.
func solveComplex(a []complex128, b []complex128, n int) ([]complex128, error) {
	m := append([]complex128(nil), a...)
	x := append([]complex128(nil), b...)
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(m[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := k; j < n; j++ {
				m[k*n+j], m[p*n+j] = m[p*n+j], m[k*n+j]
			}
			x[k], x[p] = x[p], x[k]
		}
		for i := k + 1; i < n; i++ {
			f := m[i*n+k] / m[k*n+k]
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m[i*n+j] -= f * m[k*n+j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i*n+j] * x[j]
		}
		x[i] = s / m[i*n+i]
	}
	return x, nil
}
