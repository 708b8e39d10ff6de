package circuit

// Reduced-order replay model (ROM).
//
// The trapezoidal transient step is exactly linear: with one reduced
// coordinate per reactive element —
//
//	capacitor c:  y_c = g_c·capV_c + capI_c   (the companion RHS current)
//	inductor  l:  y_l = g_l·indI_l + v_prev   (companion branch drive)
//
// — the whole Step/StepTrace recurrence collapses to
//
//	y' = F·y + Σ_s g_s·val_s        v = c·y + Σ_s d_s·val_s
//
// where the sums run over the V/I sources. F, the input columns g_s
// and the output row (c, d_s) are recovered *exactly* by probing the
// factored LU with unit vectors: the cap update is y'_c = 2g·vNew −
// y_c and the inductor update y'_l = g·x'[br] + v', both linear in the
// solve result. The reduced order m (six for the shipped 3-stage PDN)
// replaces the full MNA solve.
//
// CompileROM then eigendecomposes F into decoupled 1×1 and 2×2 real
// modal sections, so one replay cycle costs a handful of FMAs per mode
// instead of a dense triangular substitution, and the per-lane state
// is small enough to live entirely in registers — the batch kernel
// streams each lane through the modal recursion with two memory streams,
// keeping per-lane cost flat to arbitrary widths. Per-lane equilibrium
// folding absorbs the constant drive terms (supply, leakage) once per
// lane-load.
//
// The ROM is an approximation only through the eigendecomposition's
// roundoff: its quality is measured at compile time against the exact
// kernel's step/impulse/resonant responses (ErrPerAmpV) and enforced
// by the caller against a stated voltage tolerance. The exact LU
// kernel (lu.go, transient.go) remains the bit-identity oracle.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// romErrSafety scales the worst calibration error into the advertised
// per-amp bound, covering drive shapes the calibration suite does not
// enumerate (error is linear in drive amplitude for an LTI model).
const romErrSafety = 32

// romCalibrateSteps is the horizon, in cycles, of each calibration
// drive comparison.
const romCalibrateSteps = 16384

// romPair is one 2×2 modal section for a complex eigenvalue pair
// α ± iβ: state (m0, m1) advances by the rotation-scale block
// [[α, β], [−β, α]] plus the projected drive (h0, h1), and contributes
// c0·m0 + c1·m1 to the output.
type romPair struct {
	al, be float64
	h0, h1 float64
	c0, c1 float64
}

// romSingle is one 1×1 modal section for a real eigenvalue.
type romSingle struct {
	al float64
	h  float64
	c  float64
}

// ROM is a compiled reduced-order replay system for one (output node,
// driven source) pair over a Compiled transient system. It is
// immutable after CompileROM and safe for concurrent use by any number
// of ROMBatch instances.
type ROM struct {
	cp  *Compiled
	nd  Node
	ref int
	m   int // reduced order: #caps + #inductors

	// Modal kernel coefficients (pairs first, then singles; modal
	// coordinate j of a pair i is 2i, 2i+1).
	pairs   []romPair
	singles []romSingle
	du      float64 // direct feedthrough of the driven source

	// Lane-load machinery in the reduced y basis.
	luS    *luReal     // S factored: μ = S⁻¹(y − y*)
	luEq   *luReal     // (I − F) factored: equilibrium solve
	gcols  [][]float64 // per source: input column g_s
	dsrc   []float64   // per source: output feedthrough d_s
	srcEls []int       // element indices of the V/I sources
	cy     []float64   // output row over y

	errPerAmp float64 // calibrated |Δv| bound per amp of drive
}

// romSys is the exact reduced linear system probed out of a Compiled:
// y' = F·y + Σ g_s·val_s, v = cy·y + Σ d_s·val_s.
type romSys struct {
	m      int
	f      []float64 // m×m row-major
	cy     []float64
	gcols  [][]float64
	dsrc   []float64
	srcEls []int
}

// reduceOrder returns the reduced state dimension of cp.
func (cp *Compiled) reduceOrder() int { return len(cp.capOps) + len(cp.indOps) }

// reduceState extracts the reduced coordinates from a live Transient:
// companion currents per capacitor, companion branch drives per
// inductor (in capOps/indOps order).
func (cp *Compiled) reduceState(t *Transient, y []float64) {
	nc := len(cp.capOps)
	for j := range cp.capOps {
		op := &cp.capOps[j]
		y[j] = op.g*t.capV[op.ei] + t.capI[op.ei]
	}
	for j := range cp.indOps {
		op := &cp.indOps[j]
		var vp float64
		if op.ia >= 0 {
			vp = t.x[op.ia]
		}
		if op.ib >= 0 {
			vp -= t.x[op.ib]
		}
		y[nc+j] = op.g*t.indI[op.ei] + vp
	}
}

// reduceProbe advances the reduced state one step through the exact
// LU: assemble the RHS from (y, svals), solve, and read back the new
// reduced state and the output voltage. b and x are n-length scratch.
func (cp *Compiled) reduceProbe(y, svals []float64, di int, ynew []float64, b, x []float64) float64 {
	for i := range b {
		b[i] = 0
	}
	nc := len(cp.capOps)
	for j := range cp.capOps {
		op := &cp.capOps[j]
		if op.ia >= 0 {
			b[op.ia] += y[j]
		}
		if op.ib >= 0 {
			b[op.ib] -= y[j]
		}
	}
	for j := range cp.indOps {
		op := &cp.indOps[j]
		b[op.br] = -y[nc+j]
	}
	for oi := range cp.stepOps {
		op := &cp.stepOps[oi]
		switch op.kind {
		case kindV:
			b[op.br] = svals[op.ei]
		case kindI:
			if op.ia >= 0 {
				b[op.ia] -= svals[op.ei]
			}
			if op.ib >= 0 {
				b[op.ib] += svals[op.ei]
			}
		}
	}
	cp.lu.solve(b, x)
	for j := range cp.capOps {
		op := &cp.capOps[j]
		var vNew float64
		if op.ia >= 0 {
			vNew = x[op.ia]
		}
		if op.ib >= 0 {
			vNew -= x[op.ib]
		}
		ynew[j] = 2*op.g*vNew - y[j]
	}
	for j := range cp.indOps {
		op := &cp.indOps[j]
		var vp float64
		if op.ia >= 0 {
			vp = x[op.ia]
		}
		if op.ib >= 0 {
			vp -= x[op.ib]
		}
		ynew[nc+j] = op.g*x[op.br] + vp
	}
	return x[di]
}

// reduceSystem probes out the exact reduced linear system for output
// node nd.
func (cp *Compiled) reduceSystem(nd Node) (*romSys, error) {
	m := cp.reduceOrder()
	if m == 0 {
		return nil, errors.New("circuit: ROM needs at least one reactive element")
	}
	di := int(nd) - 1
	if di < 0 || di >= cp.nv {
		return nil, fmt.Errorf("circuit: ROM output node %d out of range", nd)
	}
	sys := &romSys{
		m:  m,
		f:  make([]float64, m*m),
		cy: make([]float64, m),
	}
	for oi := range cp.stepOps {
		op := &cp.stepOps[oi]
		if op.kind == kindV || op.kind == kindI {
			sys.srcEls = append(sys.srcEls, op.ei)
		}
	}
	y := make([]float64, m)
	ynew := make([]float64, m)
	svals := make([]float64, len(cp.sources0))
	b := make([]float64, cp.n)
	x := make([]float64, cp.n)
	for j := 0; j < m; j++ {
		for i := range y {
			y[i] = 0
		}
		y[j] = 1
		sys.cy[j] = cp.reduceProbe(y, svals, di, ynew, b, x)
		for i := 0; i < m; i++ {
			sys.f[i*m+j] = ynew[i]
		}
	}
	for i := range y {
		y[i] = 0
	}
	for _, ei := range sys.srcEls {
		svals[ei] = 1
		col := make([]float64, m)
		d := cp.reduceProbe(y, svals, di, col, b, x)
		svals[ei] = 0
		sys.gcols = append(sys.gcols, col)
		sys.dsrc = append(sys.dsrc, d)
	}
	return sys, nil
}

// CompileROM builds the reduced-order modal replay system for output
// node nd driven through source ref (a SourceRef index of a V or I
// element). It fails — and the caller must fall back to the exact
// kernel — when the reduced step map cannot be diagonalized accurately:
// clustered or defective modes, an ill-conditioned eigenbasis, an
// unstable discretization, or a singular equilibrium. On success the
// worst calibrated deviation from the exact kernel, per amp of drive,
// is available as ErrPerAmpV.
func (cp *Compiled) CompileROM(nd Node, ref int) (*ROM, error) {
	sys, err := cp.reduceSystem(nd)
	if err != nil {
		return nil, err
	}
	m := sys.m
	refIdx := -1
	for si, ei := range sys.srcEls {
		if ei == ref {
			refIdx = si
		}
	}
	if refIdx < 0 {
		return nil, fmt.Errorf("circuit: ROM driven source ref %d is not a V/I element", ref)
	}

	wr, wi, err := eigenValues(sys.f, m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		if math.Hypot(wr[i], wi[i]) > 1+1e-9 {
			return nil, errors.New("circuit: ROM step map is unstable")
		}
	}

	// Deterministic mode order: complex pairs by descending frequency,
	// then real modes by descending eigenvalue.
	type mode struct{ re, im float64 }
	var pairsIn, realsIn []mode
	for i := 0; i < m; i++ {
		switch {
		case wi[i] > 0:
			pairsIn = append(pairsIn, mode{wr[i], wi[i]})
		case wi[i] == 0:
			realsIn = append(realsIn, mode{wr[i], 0})
		}
	}
	sort.Slice(pairsIn, func(a, b int) bool {
		if pairsIn[a].im != pairsIn[b].im {
			return pairsIn[a].im > pairsIn[b].im
		}
		return pairsIn[a].re > pairsIn[b].re
	})
	sort.Slice(realsIn, func(a, b int) bool { return realsIn[a].re > realsIn[b].re })
	if 2*len(pairsIn)+len(realsIn) != m {
		return nil, errors.New("circuit: ROM eigenvalue pairing failed")
	}

	// Recover eigenvectors and assemble the real modal basis S and the
	// block-diagonal T (pairs occupy columns 2i, 2i+1).
	s := make([]float64, m*m)
	tmat := make([]float64, m*m)
	col := 0
	rom := &ROM{
		cp: cp, nd: nd, ref: ref, m: m,
		gcols: sys.gcols, dsrc: sys.dsrc, srcEls: sys.srcEls, cy: sys.cy,
		du: sys.dsrc[refIdx],
	}
	for _, md := range pairsIn {
		v, lam, err := eigenVector(sys.f, m, md.re, md.im)
		if err != nil {
			return nil, err
		}
		al, be := real(lam), imag(lam)
		if be < 0 {
			be = -be
			for i := range v {
				v[i] = complex(real(v[i]), -imag(v[i]))
			}
		}
		for i := 0; i < m; i++ {
			s[i*m+col] = real(v[i])
			s[i*m+col+1] = imag(v[i])
		}
		tmat[col*m+col] = al
		tmat[col*m+col+1] = be
		tmat[(col+1)*m+col] = -be
		tmat[(col+1)*m+col+1] = al
		rom.pairs = append(rom.pairs, romPair{al: al, be: be})
		col += 2
	}
	for _, md := range realsIn {
		v, lam, err := eigenVector(sys.f, m, md.re, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			s[i*m+col] = real(v[i])
		}
		tmat[col*m+col] = real(lam)
		rom.singles = append(rom.singles, romSingle{al: real(lam)})
		col++
	}

	// Validate the decomposition: small relative residual F·S − S·T and
	// a usable condition number for S.
	fnorm, snorm := matInfNorm(sys.f, m), matInfNorm(s, m)
	res := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var fs, st float64
			for k := 0; k < m; k++ {
				fs += sys.f[i*m+k] * s[k*m+j]
				st += s[i*m+k] * tmat[k*m+j]
			}
			if d := math.Abs(fs - st); d > res {
				res = d
			}
		}
	}
	if res > 1e-8*(1+fnorm)*(1+snorm) {
		return nil, errors.New("circuit: ROM modal residual too large")
	}
	luS, err := factorReal(s, m)
	if err != nil {
		return nil, fmt.Errorf("circuit: ROM modal basis singular: %w", err)
	}
	rom.luS = luS
	// cond_∞(S) via explicit inverse columns (m is tiny).
	sinv := make([]float64, m*m)
	e := make([]float64, m)
	xcol := make([]float64, m)
	for j := 0; j < m; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		luS.solve(e, xcol)
		for i := 0; i < m; i++ {
			sinv[i*m+j] = xcol[i]
		}
	}
	if snorm*matInfNorm(sinv, m) > 1e10 {
		return nil, errors.New("circuit: ROM modal basis ill-conditioned")
	}

	// Equilibrium solver (I − F); a singular system means the network
	// has a mode with no DC restoring path and the fold is undefined.
	ieqf := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			ieqf[i*m+j] = -sys.f[i*m+j]
		}
		ieqf[i*m+i] += 1
	}
	luEq, err := factorReal(ieqf, m)
	if err != nil {
		return nil, fmt.Errorf("circuit: ROM equilibrium singular: %w", err)
	}
	rom.luEq = luEq

	// Modal output row c̃ = Sᵀ·cy and drive column h̃ = S⁻¹·g_ref.
	hm := make([]float64, m)
	luS.solve(sys.gcols[refIdx], hm)
	cm := make([]float64, m)
	for j := 0; j < m; j++ {
		var acc float64
		for i := 0; i < m; i++ {
			acc += s[i*m+j] * sys.cy[i]
		}
		cm[j] = acc
	}
	for i := range rom.pairs {
		rom.pairs[i].h0, rom.pairs[i].h1 = hm[2*i], hm[2*i+1]
		rom.pairs[i].c0, rom.pairs[i].c1 = cm[2*i], cm[2*i+1]
	}
	base := 2 * len(rom.pairs)
	for i := range rom.singles {
		rom.singles[i].h = hm[base+i]
		rom.singles[i].c = cm[base+i]
	}

	rom.calibrate()
	return rom, nil
}

// ErrPerAmpV is the calibrated worst-case die-voltage deviation of the
// ROM from the exact kernel, per amp of drive amplitude, including the
// safety factor. Callers gate the ROM on errPerAmp × maxAmp against
// their stated tolerance.
func (r *ROM) ErrPerAmpV() float64 { return r.errPerAmp }

// Order returns the reduced state dimension.
func (r *ROM) Order() int { return r.m }

// Sections returns the modal section sizes in state order: one 2 per
// complex eigenvalue pair, then one 1 per real mode. The kernel never
// couples sections, so any map probed out of one-period ROM runs is
// exactly block-diagonal over this partition. The slice is freshly
// allocated.
func (r *ROM) Sections() []int {
	secs := make([]int, 0, len(r.pairs)+len(r.singles))
	for range r.pairs {
		secs = append(secs, 2)
	}
	for range r.singles {
		secs = append(secs, 1)
	}
	return secs
}

// calibrate measures the ROM against the exact kernel on a suite of
// unit-amplitude drives — impulse, step, a square wave at each modal
// resonance, and broadband noise — over romCalibrateSteps cycles, and
// records the worst deviation scaled by romErrSafety. Error is linear
// in drive amplitude for this LTI model, so the bound scales to any
// trace by its peak current.
func (r *ROM) calibrate() {
	h := romCalibrateSteps
	drives := make([][]float64, 0, 3+len(r.pairs))
	impulse := make([]float64, h)
	impulse[0] = 1
	drives = append(drives, impulse)
	step := make([]float64, h)
	for i := range step {
		step[i] = 1
	}
	drives = append(drives, step)
	for _, pr := range r.pairs {
		theta := math.Atan2(pr.be, pr.al)
		if theta <= 0 {
			continue
		}
		period := int(math.Round(2 * math.Pi / theta))
		if period < 2 || period > h/2 {
			continue // slower than the horizon; the step drive covers it
		}
		half := period / 2
		if half < 1 {
			half = 1
		}
		sq := make([]float64, h)
		for i := range sq {
			if (i/half)%2 == 0 {
				sq[i] = 1
			}
		}
		drives = append(drives, sq)
	}
	noise := make([]float64, h)
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range noise {
		seed = seed*6364136223846793005 + 1442695040888963407
		noise[i] = float64(seed>>11) / float64(1<<53)
	}
	drives = append(drives, noise)

	dstE := make([]float64, h)
	dstR := make([]float64, h)
	one := []float64{1}
	worst := 0.0
	for _, drive := range drives {
		te := r.cp.NewState()
		te.StepTrace(r.nd, r.ref, dstE, drive, 1, 1, 0)
		rb := r.NewBatch(1)
		rb.LoadLane(0, r.cp.NewState(), 0)
		rb.StepTraceBatch([][]float64{dstR}, [][]float64{drive}, one, one, h)
		for i := range dstE {
			if d := math.Abs(dstE[i] - dstR[i]); d > worst {
				worst = d
			}
		}
	}
	r.errPerAmp = worst * romErrSafety
}

// fold computes a lane's equilibrium offset for constant drive `add`
// on the driven source (all other sources at t's live values), then
// the modal deviation μ = S⁻¹(y − y*) of t's current state. Returns
// the folded constant output term vstar = c·y* + Σ d_s·val_s.
// Scratch slices are length m, owned by the caller.
func (r *ROM) fold(t *Transient, add float64, mu, y, rhs, ystar []float64) float64 {
	if t.cp != r.cp {
		panic("circuit: ROM fold across different compiled systems")
	}
	r.cp.reduceState(t, y)
	for i := range rhs {
		rhs[i] = 0
	}
	vstar := 0.0
	for si, ei := range r.srcEls {
		val := t.sources[ei]
		if ei == r.ref {
			val = add
		}
		col := r.gcols[si]
		for i := range rhs {
			rhs[i] += col[i] * val
		}
		vstar += r.dsrc[si] * val
	}
	r.luEq.solve(rhs, ystar)
	for i := range ystar {
		vstar += r.cy[i] * ystar[i]
		y[i] -= ystar[i]
	}
	r.luS.solve(y, mu)
	return vstar
}

// romStepKernel is the modal recursion every ROM lane runs (the AVX2
// 4-lane kernel replays its exact operation order), so a lane's output
// is the same at any batch width. Unlike the exact kernel there is no
// add term — the constant drive was folded into the equilibrium at lane
// load — and the mul/div scale is collapsed to one reciprocal factor up
// front (the ROM has no bitwise contract with the exact kernel). The
// modal state (a few coordinates) and section coefficients all fit in
// registers, so the per-step cost is a handful of FMAs per mode plus
// one streaming load (src) and store (dst): the loop is bound by the
// independent per-section dependency chains, not memory.
func romStepKernel(r *ROM, mu []float64, vstar float64, dst, src []float64, mul, div float64, n int) {
	pairs, singles := r.pairs, r.singles
	du := r.du
	rmul := mul / div
	for s := 0; s < n; s++ {
		ut := src[s] * rmul
		acc := vstar + du*ut
		off := 0
		for pi := range pairs {
			pr := pairs[pi]
			m0, m1 := mu[off], mu[off+1]
			acc += pr.c0*m0 + pr.c1*m1
			mu[off] = pr.al*m0 + pr.be*m1 + pr.h0*ut
			mu[off+1] = pr.al*m1 - pr.be*m0 + pr.h1*ut
			off += 2
		}
		for si := range singles {
			sg := singles[si]
			m0 := mu[off]
			acc += sg.c * m0
			mu[off] = sg.al*m0 + sg.h*ut
			off++
		}
		dst[s] = acc
	}
}

// ROMBatch advances several independent ROM replays over one shared
// ROM. Lane state is held lane-minor structure-of-arrays
// ([coord*lanes + l]) like the exact TransientBatch, so lane loading,
// swap-remove retirement and mid-stream repacking are uniform across
// both batch kinds — but unlike the exact kernel, whose per-cycle
// triangular solve is memory-bound and must amortize matrix traffic
// across lanes, the ROM's whole per-lane working set (a few modal
// coordinates plus section coefficients) fits in registers. The step
// kernel therefore runs lane-major: each lane streams its entire chunk
// through romStepKernel with two memory streams (src in, dst out) and
// no shared mutable state, which keeps per-lane cost flat to arbitrary
// widths instead of degrading when dozens of lane streams thrash the
// prefetchers.
type ROMBatch struct {
	rom   *ROM
	lanes int
	mu    []float64 // [m × lanes], lane-minor
	vstar []float64
	// scratch (length m): lane-load fold and kernel gather/scatter
	y, rhs, ystar, muLane []float64
}

// NewBatch returns a ROM batch of `lanes` unloaded lanes; load each
// via LoadLane before stepping.
func (r *ROM) NewBatch(lanes int) *ROMBatch {
	if lanes < 1 {
		panic("circuit: ROM batch needs at least one lane")
	}
	return &ROMBatch{
		rom:    r,
		lanes:  lanes,
		mu:     make([]float64, r.m*lanes),
		vstar:  make([]float64, lanes),
		y:      make([]float64, r.m),
		rhs:    make([]float64, r.m),
		ystar:  make([]float64, r.m),
		muLane: make([]float64, r.m),
	}
}

// Lanes returns the current number of lanes (shrinks via DropLane).
func (rb *ROMBatch) Lanes() int { return rb.lanes }

func (rb *ROMBatch) checkLane(l int) {
	if l < 0 || l >= rb.lanes {
		panic("circuit: ROM lane index out of range")
	}
}

// LoadLane folds t's current state into lane l, with constant drive
// add on the driven source; t is not modified.
func (rb *ROMBatch) LoadLane(l int, t *Transient, add float64) {
	rb.checkLane(l)
	muCol := rb.ystar // reused as μ destination after the fold's last solve
	rb.vstar[l] = rb.rom.fold(t, add, muCol, rb.y, rb.rhs, rb.ystar)
	scatter(rb.mu, muCol, rb.lanes, l)
}

// SetLaneModal loads lane l directly from a modal deviation state and
// folded constant term. The periodic probe path shares one fold across
// all its lanes (reference plus unit modal perturbations), so loading
// modal coordinates directly avoids re-folding per lane.
func (rb *ROMBatch) SetLaneModal(l int, mu []float64, vstar float64) {
	rb.checkLane(l)
	if len(mu) < rb.rom.m {
		panic("circuit: ROM modal state shorter than order")
	}
	scatter(rb.mu, mu[:rb.rom.m], rb.lanes, l)
	rb.vstar[l] = vstar
}

// LaneModal copies lane l's modal deviation state into dst (length ≥
// m) and returns the lane's folded constant term.
func (rb *ROMBatch) LaneModal(l int, dst []float64) float64 {
	rb.checkLane(l)
	gather(dst[:rb.rom.m], rb.mu, rb.lanes, l)
	return rb.vstar[l]
}

// DropLane retires lane l by swap-remove (the last lane moves into
// slot l) and shrinks the batch, mirroring TransientBatch.DropLane.
func (rb *ROMBatch) DropLane(l int) {
	rb.checkLane(l)
	L := rb.lanes
	rb.mu = dropCol(rb.mu, L, l)
	rb.vstar[l] = rb.vstar[L-1]
	rb.vstar = rb.vstar[:L-1]
	rb.lanes = L - 1
}

// StepTraceBatch advances every lane n steps: at step s, lane l drives
// the compiled source with src[l][s]*mul[l]/div[l] above its folded
// constant level and records the output voltage into dst[l][s]. Each
// lane's modal column is gathered out of the SoA store, streamed
// through romStepKernel — so every lane is bit-identical to a one-lane
// replay at any batch width — and scattered back. The gather/scatter
// costs O(m) per lane per call, amortized over the n-step chunk.
func (rb *ROMBatch) StepTraceBatch(dst, src [][]float64, mul, div []float64, n int) {
	r := rb.rom
	L := rb.lanes
	if L == 0 || n == 0 {
		return
	}
	if len(dst) < L || len(src) < L || len(mul) < L || len(div) < L {
		panic("circuit: ROM StepTraceBatch lane parameters shorter than batch")
	}
	for l := 0; l < L; l++ {
		if len(src[l]) < n || len(dst[l]) < n {
			panic("circuit: ROM StepTraceBatch lane buffer shorter than n")
		}
	}
	// AVX2 builds step 4 adjacent lanes per kernel pass: the lane-minor
	// SoA already holds them contiguously, and the vector kernel's
	// per-slot op order is romStepKernel's exactly, so the split is
	// invisible in the output bits.
	l := 0
	if haveAVX2 {
		for ; l+4 <= L; l += 4 {
			rb.stepLanes4AVX2(l, dst, src, mul, div, n)
		}
	}
	muLane := rb.muLane
	for ; l < L; l++ {
		gather(muLane, rb.mu, L, l)
		romStepKernel(r, muLane, rb.vstar[l], dst[l][:n], src[l], mul[l], div[l], n)
		scatter(rb.mu, muLane, L, l)
	}
}
