package testbed

import (
	"math"
	"time"

	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/scope"
)

// This file is phase 2 of the two-phase measurement pipeline: stream
// recorded chip traces (trace.go) through the PDN kernel and reproduce
// Platform.measure's statistics. Every replay is a lane of one driver,
// replayPass: CompiledPlatform.Run is a one-lane pass and MeasureBatch
// packs a generation into multi-lane passes (batch.go). For the cycles
// it actually steps, a lane's arithmetic is bit-identical to the exact
// loop — the kernel computes power.Amps(e, dt, supply) + leakage as
// e*mul/div + add with mul = 1e-12 and div = dt*supply, the same
// operation sequence — and to itself at any lane width, so a
// full-length replay returns the same Measurement bit for bit whichever
// pass carries it.
//
// Two independent early exits make replays cheap:
//   - chip side: a verified-periodic trace stores only head + one
//     period; the remaining cycles re-stream the period slice.
//   - PDN side: a periodic lane with no sample consumer leaves its pass
//     at the head boundary for the period map (periodMap), which steps
//     whole periods in closed form; once the response stops moving
//     (projected drift under convergeTailV), the remaining
//     MinV/MeanV/EnergyPJ/UnitTotals are extrapolated from the
//     converged period. A scope, trigger or histogram consumes every
//     sample, so its periodic lane re-streams period tiles instead.

const (
	// replayChunk is the pass length, in cycles, of one kernel call.
	replayChunk = 4096
	// convergeTailV bounds the projected remaining die-voltage drift
	// (volts) below which the periodic response is declared converged.
	// The per-boundary waveform delta decays geometrically with ratio ρ
	// once transients dominate, so the total future movement of any
	// sample is at most d·ρ/(1−ρ); requiring that projection under
	// 1e-10 V keeps the extrapolated voltage statistics well within
	// 1e-9 V of the exact loop regardless of how slowly the network
	// rings down.
	convergeTailV = 1e-10
	// convergeWindow is how many recent boundary deltas feed the ρ
	// estimate; ρ is their worst (largest) consecutive ratio, because
	// lightly damped modes beat and the instantaneous ratio at a beat
	// minimum wildly understates the true decay envelope.
	convergeWindow = 4
	// convergeRuns is how many consecutive boundaries must qualify
	// before the exit is taken — a second guard against beat minima.
	convergeRuns = 3
)

// getVBuf returns a pooled voltage buffer of length n.
func (cp *CompiledPlatform) getVBuf(n int) []float64 {
	if b, ok := cp.vbufs.Get().([]float64); ok && cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n)
}

// replayFold accumulates Platform.measure's per-cycle statistics over
// streamed voltage spans, in the exact loop's per-cycle order, so every
// lane produces the exact loop's statistics for the same voltage
// stream.
type replayFold struct {
	p    Platform
	m    *Measurement
	vNom float64
	warm uint64
	sumV float64
	nV   uint64
	sc   *scope.Scope
	trig *scope.Trigger
	hist *scope.Histogram
}

// scan folds one simulated span into the measurement.
func (f *replayFold) scan(base uint64, es []float64, qs []uint64, vs []float64) {
	m := f.m
	for i := range es {
		cyc := base + uint64(i)
		m.EnergyPJ += es[i]
		q := qs[i]
		for u := 0; u < int(isa.NumUnits); u++ {
			m.UnitTotals[u] += (q >> (8 * uint(u))) & 0xff
		}
		if cyc < f.warm {
			continue
		}
		v := vs[i]
		if d := f.vNom - v; d > m.MaxDroopV {
			m.MaxDroopV = d
		}
		if o := v - f.vNom; o > m.MaxOvershootV {
			m.MaxOvershootV = o
		}
		if v < m.MinV {
			m.MinV = v
		}
		f.sumV += v
		f.nV++
		if f.sc != nil {
			f.sc.Sample(v)
		}
		if f.trig != nil {
			f.trig.Sample(v)
		}
		if f.hist != nil {
			f.hist.Add(v)
		}
		if !m.Failed && f.p.Failure.checkPacked(v, q) {
			m.Failed = true
			m.FailCycle = cyc
		}
	}
}

// finish fills the end-of-run fields: chip counters (extrapolated for
// periodic traces, final for full ones), mean voltage and average
// power.
func (f *replayFold) finish(tr *chipTrace, N uint64, dt float64) {
	m := f.m
	m.Cycles = N
	if tr.periodic {
		// Chip counters at N cycles from the verified per-period
		// deltas: ref is the boundary at headLen+periodLen, K full
		// periods fit in the remaining span, and the partial tail is
		// apportioned pro rata (the only approximate fields — callers
		// that need exact tail counters set ExactCycleLoop).
		pStart := uint64(tr.headLen)
		pLen := uint64(tr.periodLen)
		span := N - pStart
		K := span / pLen // ≥ 3 by the detector's arming condition
		rem := span % pLen
		ext := func(ref, per uint64) uint64 { return ref + per*(K-1) + per*rem/pLen }
		m.Retired = ext(tr.refRetired, tr.perRetired)
		m.Branches = ext(tr.refStats.Branches, tr.perStats.Branches)
		m.Mispredicts = ext(tr.refStats.Mispredicts, tr.perStats.Mispredicts)
		m.L1Hits = ext(tr.refStats.L1Hits, tr.perStats.L1Hits)
		m.L1Misses = ext(tr.refStats.L1Misses, tr.perStats.L1Misses)
		m.L2Hits = ext(tr.refStats.L2Hits, tr.perStats.L2Hits)
		m.L2Misses = ext(tr.refStats.L2Misses, tr.perStats.L2Misses)
		m.L3Hits = ext(tr.refStats.L3Hits, tr.perStats.L3Hits)
		m.L3Misses = ext(tr.refStats.L3Misses, tr.perStats.L3Misses)
	} else {
		m.Retired = tr.endRetired
		st := tr.endStats
		m.Branches, m.Mispredicts = st.Branches, st.Mispredicts
		m.L1Hits, m.L1Misses = st.L1Hits, st.L1Misses
		m.L2Hits, m.L2Misses = st.L2Hits, st.L2Misses
		m.L3Hits, m.L3Misses = st.L3Hits, st.L3Misses
	}
	if f.nV > 0 {
		m.MeanV = f.sumV / float64(f.nV)
	}
	if m.Cycles > 0 {
		m.AvgPowerW = m.EnergyPJ*1e-12/(float64(m.Cycles)*dt) + f.p.Power.LeakageWattsPerModule*float64(f.p.Chip.Modules)
	}
}

// replayLane is one replay riding a kernel pass: the statistics fold
// it feeds (scope, trigger and histogram included), its memo key and
// result slot, and a cursor over its source trace.
type replayLane struct {
	slot    int    // MeasureBatch result slot
	memoKey string // "" when sample consumers rule out the memo
	tr      *chipTrace
	fold    replayFold
	rom     bool    // rides the reduced-order kernel
	supply  float64 // RunConfig.SupplyVolts (0 = nominal)
	div     float64 // amps conversion: dt·supply
	add     float64 // leakage amps
	n       uint64  // cycles the exact loop would simulate
	end     uint64  // cycle at which the lane leaves its pass
	cyc     uint64  // next cycle to stream
	vbuf    []float64
}

// newLane prepares rc's replay of tr. The lane's kernel follows one
// rule: the reduced-order kernel whenever the platform tolerance admits
// the trace, except that a periodic trace with sample consumers keeps
// the exact kernel for every sample.
func (cp *CompiledPlatform) newLane(slot int, tr *chipTrace, rc RunConfig, memoKey string) (*replayLane, error) {
	p := cp.p
	supply := p.PDN.VNom
	if rc.SupplyVolts > 0 {
		supply = rc.SupplyVolts
	}
	ln := &replayLane{slot: slot, memoKey: memoKey, tr: tr, supply: rc.SupplyVolts,
		div: p.Chip.CycleSeconds() * supply, add: p.Power.LeakageAmps(p.Chip.Modules, supply)}
	ln.fold = replayFold{p: p, m: &Measurement{MinV: supply}, vNom: p.PDN.VNom,
		warm: rc.WarmupCycles, hist: rc.Histogram}
	if rc.RecordWaveform {
		var buf []float64
		if b, ok := cp.scopeBufs.Get().([]float64); ok {
			buf = b
		}
		rate := rc.ScopeSampleHz
		if rate <= 0 {
			rate = p.Chip.ClockHz
		}
		sc, err := scope.NewInto(p.Chip.ClockHz, rate, true, buf)
		if err != nil {
			return nil, err
		}
		ln.fold.sc = sc
	}
	if rc.TriggerThreshold > 0 {
		ln.fold.trig = scope.NewTrigger(rc.TriggerThreshold, 0.002)
	}
	// A periodic trace runs to MaxCycles; a full trace already holds
	// every cycle (it is shorter than MaxCycles only when the program
	// finished). Without sample consumers a periodic lane leaves its
	// pass at the head boundary for the period map.
	consumers := rc.sampleConsumers()
	stored := uint64(len(tr.energy))
	ln.n, ln.end = stored, stored
	if tr.periodic {
		ln.n, ln.end = rc.MaxCycles, rc.MaxCycles
		if !consumers {
			ln.end = min(stored, ln.n)
		}
	}
	ln.rom = (!tr.periodic || !consumers) && cp.romOK(tr, ln.div, ln.add)
	return ln, nil
}

// span returns where the lane's next cycle sits in the stored trace and
// how many cycles from there stay contiguous: the stored span first,
// then (for a periodic lane with consumers) period tiles, each chunk
// ending at the nearest segment end or the lane's end.
func (ln *replayLane) span() (off, n uint64) {
	stored := uint64(len(ln.tr.energy))
	if ln.cyc < stored {
		return ln.cyc, min(stored, ln.end) - ln.cyc
	}
	pLen := uint64(ln.tr.periodLen)
	k := (ln.cyc - stored) % pLen
	return uint64(ln.tr.headLen) + k, min(pLen-k, ln.end-ln.cyc)
}

// replayPass is the replay driver: it streams lanes — all on the ROM
// or all on the exact kernel, per their rom flags — through one
// multi-lane kernel pass, folds every sample in the exact loop's order,
// and finishes each lane's Measurement (memoized when the lane has a
// memo key). Lanes retire independently as their streams end
// (swap-remove, mirroring the kernel's DropLane); a periodic lane
// without sample consumers retires at its head boundary into the period
// map. At one lane both kernels run their scalar code, so a one-lane
// pass is the serial replay.
func (cp *CompiledPlatform) replayPass(lanes []*replayLane) {
	defer cp.traces.addReplayNS(time.Now())
	L := len(lanes)
	rom := lanes[0].rom
	cp.traces.noteReplays(L, rom)
	var pb *pdn.Batch
	var rb *pdn.ROMBatch
	if rom {
		rb, _ = cp.net.NewROMBatch(L) // romOK verified the ROM compiles
	} else {
		pb = cp.net.NewBatch(L)
	}
	live := append([]*replayLane(nil), lanes...)
	muls := make([]float64, L)
	divs := make([]float64, L)
	adds := make([]float64, L)
	offs := make([]uint64, L)
	dsts := make([][]float64, L)
	srcs := make([][]float64, L)
	for l, ln := range live {
		if ln.tr.periodic {
			cp.traces.notePeriodicReplay(rom)
		}
		net := cp.getNet(ln.supply)
		if rom {
			rb.LoadLane(l, net, ln.add)
		} else {
			pb.LoadLane(l, net)
		}
		cp.net.Put(net)
		muls[l] = 1e-12
		ln.vbuf = cp.getVBuf(replayChunk)
	}
	for {
		// Retire finished lanes (high to low so swap-ins are already
		// checked survivors).
		for l := len(live) - 1; l >= 0; l-- {
			ln := live[l]
			if ln.cyc < ln.end {
				continue
			}
			if ln.cyc < ln.n {
				cp.enterPeriodMap(ln, pb, rb, l)
			}
			cp.finishLane(ln)
			if rom {
				rb.DropLane(l)
			} else {
				pb.DropLane(l)
			}
			last := len(live) - 1
			live[l] = live[last]
			live = live[:last]
		}
		w := len(live)
		if w == 0 {
			return
		}
		n := uint64(replayChunk)
		for l, ln := range live {
			off, s := ln.span()
			offs[l], n = off, min(n, s)
		}
		for l, ln := range live {
			dsts[l] = ln.vbuf[:n]
			srcs[l] = ln.tr.energy[offs[l] : offs[l]+n]
			divs[l], adds[l] = ln.div, ln.add
		}
		if rom {
			rb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], int(n))
		} else {
			pb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], adds[:w], int(n))
		}
		for l, ln := range live {
			ln.fold.scan(ln.cyc, srcs[l], ln.tr.issues[offs[l]:offs[l]+n], dsts[l])
			ln.cyc += n
		}
	}
}

// finishLane completes a retired lane's Measurement — chip counters,
// mean voltage and power, the scope waveform and droop events — and
// memoizes it.
func (cp *CompiledPlatform) finishLane(ln *replayLane) {
	f := &ln.fold
	f.finish(ln.tr, ln.n, cp.p.Chip.CycleSeconds())
	m := f.m
	if f.sc != nil {
		w := f.sc.Waveform()
		m.Waveform = append([]float64(nil), w...)
		cp.scopeBufs.Put(w[:0])
	}
	if f.trig != nil {
		m.DroopEvents = f.trig.EventCount()
	}
	if ln.memoKey != "" {
		cp.traces.putResult(ln.memoKey, *m)
	}
	cp.vbufs.Put(ln.vbuf[:0])
}

// enterPeriodMap hands lane l's state at its head boundary to the
// period map in the coordinates of the kernel it streamed on: the exact
// kernel's full network state (StateDim+1 probe lanes, empirical
// convergence window), or the ROM's modal coordinates (m+1 probe lanes,
// analytic convergence bound).
func (cp *CompiledPlatform) enterPeriodMap(ln *replayLane, pb *pdn.Batch, rb *pdn.ROMBatch, l int) {
	if rb != nil {
		r, _ := cp.net.ROM()
		mu := make([]float64, r.Order())
		vstar := rb.LaneModal(l, mu)
		cp.periodMap(ln, mu, func(dsts, srcs, states [][]float64, muls, divs, _ []float64) {
			probe, _ := cp.net.NewROMBatch(len(states))
			for k, s := range states {
				probe.SetLaneModal(k, s, vstar)
			}
			probe.StepTraceBatch(dsts, srcs, muls, divs, len(dsts[0]))
			for k, s := range states {
				probe.LaneModal(k, s)
			}
		}, modalConvergence(r.Sections(), ln.fold.warm))
		return
	}
	net := cp.net.Get()
	pb.StoreLane(l, net)
	s0 := make([]float64, net.StateDim())
	net.StateVec(s0)
	cp.periodMap(ln, s0, func(dsts, srcs, states [][]float64, muls, divs, adds []float64) {
		probe := cp.net.NewBatch(len(states))
		for k, s := range states {
			// Sources (the lane's supply set-point and last sink value)
			// come from the live state; only the dynamic state differs.
			probe.LoadLane(k, net)
			probe.SetLaneStateVec(k, s)
		}
		probe.StepTraceBatch(dsts, srcs, muls, divs, adds, len(dsts[0]))
		for k, s := range states {
			probe.LaneStateVec(k, s)
		}
	}, affineConvergence(ln.fold.warm))
	cp.net.Put(net)
}

// periodModel is one drive period as an exact affine map of the
// boundary state s (dimension d). The network is linear and every tile
// drives it with the same current sequence, so the end state is
// E(s) = eRef + A·(s−sRef) and the in-period die voltages are
// v_c(s) = vRef[c] + W_c·(s−sRef).
type periodModel struct {
	d, pLen int
	sRef    []float64
	eRef    []float64
	vRef    []float64
	a       []float64 // column k at a[k*d:]
	w       []float64 // row c at w[c*d:]
}

// volts writes the in-period die voltages for boundary deviation ds.
func (pm *periodModel) volts(dst, ds []float64) {
	d := pm.d
	for c := range dst {
		v := pm.vRef[c]
		for i, w := range pm.w[c*d : c*d+d] {
			v += w * ds[i]
		}
		dst[c] = v
	}
}

// probePass runs one period from each start state as the lanes of one
// kernel pass, writing each lane's die voltages into dsts and replacing
// each start state with the lane's end state.
type probePass func(dsts, srcs, states [][]float64, muls, divs, adds []float64)

// convergenceTest reports, after each scanned period, whether every
// later period repeats its voltages v to within convergeTailV; s is the
// boundary state the period started from and boundary the cycle reached.
type convergenceTest func(v, s []float64, boundary uint64) bool

// periodMap replays a periodic lane from its head boundary (state s0)
// to the end of its run. Sampling the period map is exact — no
// small-perturbation approximation, linearity makes the finite
// difference the true derivative — and costs one probe pass of d+1
// one-period lanes: lane 0 is the reference from s0, lane k+1 starts
// from s0 with coordinate k perturbed by +1. Each boundary then
// advances with O(d² + pLen·d) arithmetic instead of pLen kernel
// steps. The first tile has ds = 0, so its voltages are the kernel's
// own output bit for bit; later tiles pick up ~1e-13 V of float
// reordering noise, far inside the convergence tolerances. Once the
// lane's convergence test fires, the remaining periods are
// extrapolated; otherwise a non-aligned tail is finished from the next
// period's prefix.
func (cp *CompiledPlatform) periodMap(ln *replayLane, s0 []float64, probe probePass, newTest func(*periodModel) convergenceTest) {
	tr, f := ln.tr, &ln.fold
	d, pLen := len(s0), tr.periodLen
	period, periodQ := tr.energy[tr.headLen:], tr.issues[tr.headLen:]

	probeV := make([]float64, (d+1)*pLen)
	dsts := make([][]float64, d+1)
	srcs := make([][]float64, d+1)
	states := make([][]float64, d+1)
	muls := make([]float64, d+1)
	divs := make([]float64, d+1)
	adds := make([]float64, d+1)
	for k := range states {
		dsts[k] = probeV[k*pLen : (k+1)*pLen]
		srcs[k] = period
		states[k] = append([]float64(nil), s0...)
		if k > 0 {
			states[k][k-1]++
		}
		muls[k], divs[k], adds[k] = 1e-12, ln.div, ln.add
	}
	probe(dsts, srcs, states, muls, divs, adds)
	cp.traces.noteProbeLanes(d + 1)
	pm := &periodModel{d: d, pLen: pLen, sRef: s0, eRef: states[0], vRef: dsts[0],
		a: make([]float64, d*d), w: make([]float64, pLen*d)}
	for k := 1; k <= d; k++ {
		col := pm.a[(k-1)*d : k*d]
		for i := range col {
			col[i] = states[k][i] - pm.eRef[i]
		}
		for c := 0; c < pLen; c++ {
			pm.w[c*d+k-1] = dsts[k][c] - pm.vRef[c]
		}
	}
	converged := newTest(pm)

	N, cyc, P := ln.n, ln.cyc, uint64(pLen)
	vbuf := cp.getVBuf(pLen)
	s := append([]float64(nil), s0...)
	sNext := make([]float64, d)
	ds := make([]float64, d)
	exitAt := uint64(0)
	for cyc+P <= N {
		for i := range ds {
			ds[i] = s[i] - s0[i]
		}
		pm.volts(vbuf, ds)
		f.scan(cyc, period, periodQ, vbuf)
		cyc += P
		if cyc < N && converged(vbuf, s, cyc) {
			exitAt = cyc
			break
		}
		// Advance the boundary state: s' = eRef + A·ds.
		copy(sNext, pm.eRef)
		for k, dk := range ds {
			if dk != 0 {
				for i, a := range pm.a[k*d : k*d+d] {
					sNext[i] += a * dk
				}
			}
		}
		s, sNext = sNext, s
	}
	if exitAt > 0 {
		cp.traces.noteEarlyExit()
		extrapolatePeriodic(f, tr, vbuf, period, periodQ, N, exitAt, P)
	} else if cyc < N {
		// MaxCycles is not period-aligned: finish the partial tail
		// from the next period's prefix.
		rem := N - cyc
		for i := range ds {
			ds[i] = s[i] - s0[i]
		}
		pm.volts(vbuf[:rem], ds)
		f.scan(cyc, period[:rem], periodQ[:rem], vbuf[:rem])
	}
	cp.vbufs.Put(vbuf[:0])
	ln.cyc = N
}

// affineConvergence is the exact kernel's test: it watches the
// period-boundary die-voltage waveform. The full PDN state is the wrong
// gauge — board-stage L/R and C·ESR time constants run to milliseconds,
// so internal states keep drifting long after the die-voltage response
// (the only thing the extrapolated statistics consume) has settled. A
// boundary qualifies when the geometric projection of all future
// movement, from the worst consecutive ratio ρ of the last
// convergeWindow deltas, is under convergeTailV (a zero delta means the
// response hit a floating-point fixed cycle); the exit needs
// convergeRuns consecutive qualifying boundaries.
func affineConvergence(warm uint64) func(*periodModel) convergenceTest {
	return func(pm *periodModel) convergenceTest {
		pLen := uint64(pm.pLen)
		prevV := make([]float64, pm.pLen)
		havePrev := false
		var dHist [convergeWindow]float64
		nHist, runs := 0, 0
		return func(v, _ []float64, boundary uint64) bool {
			if !havePrev {
				copy(prevV, v)
				havePrev = true
				return false
			}
			var d float64
			for i := range v {
				if dd := math.Abs(v[i] - prevV[i]); dd > d {
					d = dd
				}
			}
			if nHist < convergeWindow {
				dHist[nHist] = d
				nHist++
			} else {
				copy(dHist[:], dHist[1:])
				dHist[convergeWindow-1] = d
			}
			ok := d == 0
			if !ok && nHist == convergeWindow {
				rho := 0.0
				for j := 1; j < convergeWindow; j++ {
					if r := dHist[j] / dHist[j-1]; r > rho {
						rho = r
					}
				}
				ok = rho < 1 && d*rho/(1-rho) < convergeTailV
			}
			// Only trust a converged period whose samples all counted
			// toward statistics (fully past warmup).
			if ok && boundary-pLen >= warm {
				if runs++; runs >= convergeRuns {
					return true
				}
			} else {
				runs = 0
			}
			copy(prevV, v)
			return false
		}
	}
}

// modalConvergence is the ROM's analytic test. romStepKernel never
// couples modal sections, so the probed period map A is exactly
// block-diagonal over secs — which makes the steady-state boundary
// μ* = μRef + (I−A)⁻¹(eRef−μRef) and the per-section contraction
// factors σ_i = ‖A_i‖₂ cheap and exact. For a boundary μ with
// per-section deviation δ_i = (μ−μ*)_i, every sample of every future
// period differs from the just-scanned one by at most
//
//	|W_c·(A^j−I)δ| ≤ Σ_i (σ_i^j + 1)·Wmax_i·‖δ_i‖ ≤ Σ_i (1+σ_i)·Wmax_i·‖δ_i‖
//
// (σ_i ≤ 1, j ≥ 1), with Wmax_i = max_c ‖W_c section-i part‖₂. The
// test fires at the first boundary past warmup where that bound clears
// convergeTailV — no empirical window. If the steady-state solve is
// singular or any σ_i > 1 it never fires: every period is scanned,
// still within the admitted ROM tolerance.
func modalConvergence(secs []int, warm uint64) func(*periodModel) convergenceTest {
	never := func([]float64, []float64, uint64) bool { return false }
	return func(pm *periodModel) convergenceTest {
		m := pm.d
		muStar := make([]float64, m)
		rhs := make([]float64, m)
		for i := range rhs {
			rhs[i] = pm.eRef[i] - pm.sRef[i]
		}
		if pdn.PeriodicSteadyState(secs, pm.a, rhs, muStar) != nil {
			return never
		}
		for i := range muStar {
			muStar[i] += pm.sRef[i]
		}
		sig := pdn.SectionContractions(secs, pm.a)
		for _, s := range sig {
			if !(s <= 1) {
				return never
			}
		}
		wmax := make([]float64, len(secs))
		for c := 0; c < pm.pLen; c++ {
			row := pm.w[c*m : c*m+m]
			o := 0
			for si, sz := range secs {
				var n2 float64
				for j := 0; j < sz; j++ {
					n2 += row[o+j] * row[o+j]
				}
				if n2 > wmax[si] {
					wmax[si] = n2
				}
				o += sz
			}
		}
		for si := range wmax {
			wmax[si] = math.Sqrt(wmax[si])
		}
		pLen := uint64(pm.pLen)
		return func(_, mu []float64, boundary uint64) bool {
			if boundary-pLen < warm {
				return false // same warmup gate as the affine test
			}
			bound := 0.0
			o := 0
			for si, sz := range secs {
				var n2 float64
				for j := 0; j < sz; j++ {
					d := mu[o+j] - muStar[o+j]
					n2 += d * d
				}
				bound += (1 + sig[si]) * wmax[si] * math.Sqrt(n2)
				o += sz
			}
			return bound <= convergeTailV
		}
	}
}

// extrapolatePeriodic folds the remaining N−converged cycles in closed
// form from the converged period response left in vbuf[:pLen]. Every
// remaining period repeats that response, so MinV/MeanV/EnergyPJ/
// UnitTotals follow from one pass over the period. No new failure can
// appear: the converged period was scanned and its repeats are
// identical to within convergeTailV.
func extrapolatePeriodic(fold *replayFold, tr *chipTrace, vbuf, period []float64, periodQ []uint64, N, converged, pLen uint64) {
	m := fold.m
	vNom := fold.vNom
	remaining := N - converged
	K := remaining / pLen
	rem := remaining % pLen
	var psum float64
	pmin, pmax := vbuf[0], vbuf[0]
	for _, v := range vbuf[:pLen] {
		psum += v
		if v < pmin {
			pmin = v
		}
		if v > pmax {
			pmax = v
		}
	}
	if K > 0 {
		fold.sumV += psum * float64(K)
		fold.nV += K * pLen
		if d := vNom - pmin; d > m.MaxDroopV {
			m.MaxDroopV = d
		}
		if o := pmax - vNom; o > m.MaxOvershootV {
			m.MaxOvershootV = o
		}
		if pmin < m.MinV {
			m.MinV = pmin
		}
		m.EnergyPJ += tr.periodEnergy * float64(K)
		for u := range tr.periodIssues {
			m.UnitTotals[u] += tr.periodIssues[u] * K
		}
	}
	for i := uint64(0); i < rem; i++ {
		v := vbuf[i]
		if d := vNom - v; d > m.MaxDroopV {
			m.MaxDroopV = d
		}
		if o := v - vNom; o > m.MaxOvershootV {
			m.MaxOvershootV = o
		}
		if v < m.MinV {
			m.MinV = v
		}
		fold.sumV += v
		fold.nV++
		m.EnergyPJ += period[i]
		q := periodQ[i]
		for u := 0; u < int(isa.NumUnits); u++ {
			m.UnitTotals[u] += (q >> (8 * uint(u))) & 0xff
		}
	}
}
