package testbed

import (
	"time"

	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/scope"
)

// This file is phase 2 of the two-phase measurement pipeline: stream
// recorded chip traces (trace.go) through the PDN kernel and reproduce
// Platform.measure's statistics. Every replay is a lane of one driver,
// replayPass: CompiledPlatform.Run is a one-lane pass and MeasureBatch
// packs a generation into multi-lane passes (batch.go). A lane streams
// its whole trace, which holds every cycle the exact loop simulates.
// Its arithmetic is bit-identical to the exact loop — the kernel
// computes power.Amps(e, dt, supply) + leakage as e*mul/div + add with
// mul = 1e-12 and div = dt*supply, the same operation sequence — and to
// itself at any lane width, so an exact-kernel replay returns the exact
// loop's Measurement bit for bit whichever pass carries it.

// replayChunk is the pass length, in cycles, of one kernel call.
const replayChunk = 4096

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

// scan folds one simulated span into the measurement. Its result is the
// exact loop's per-cycle fold bit for bit, at a fraction of the cost:
//   - EnergyPJ and UnitTotals cover every cycle, each in a loop of its
//     own; energy adds in cycle order, so the float sum is unchanged.
//   - The span splits once at the warmup boundary; the voltage
//     statistics live in locals over the post-warmup part and are
//     written back once.
//   - The failure check compares v with the model's ceiling first and
//     builds the failing-unit mask only below it.
//   - Scope, trigger and histogram see every post-warmup sample in
//     cycle order, in a loop of their own.
func (f *replayFold) scan(base uint64, es []float64, qs []uint64, vs []float64) {
	m := f.m
	qs, vs = qs[:len(es)], vs[:len(es)]
	energy := m.EnergyPJ
	for _, e := range es {
		energy += e
	}
	m.EnergyPJ = energy
	addUnitTotals(&m.UnitTotals, qs)

	if base < f.warm {
		skip := min(f.warm-base, uint64(len(vs)))
		base += skip
		qs, vs = qs[skip:], vs[skip:]
	}
	vNom, ceil := f.vNom, f.p.Failure.ceilingV()
	droop, over, minV, sum := m.MaxDroopV, m.MaxOvershootV, m.MinV, f.sumV
	failed := m.Failed
	for i, v := range vs {
		if d := vNom - v; d > droop {
			droop = d
		}
		if o := v - vNom; o > over {
			over = o
		}
		if v < minV {
			minV = v
		}
		sum += v
		if v < ceil && !failed && qs[i]&f.p.Failure.failMask(v) != 0 {
			failed = true
			m.FailCycle = base + uint64(i)
		}
	}
	m.MaxDroopV, m.MaxOvershootV, m.MinV, m.Failed = droop, over, minV, failed
	f.sumV = sum
	f.nV += uint64(len(vs))

	if sc, trig, hist := f.sc, f.trig, f.hist; sc != nil || trig != nil || hist != nil {
		for _, v := range vs {
			if sc != nil {
				sc.Sample(v)
			}
			if trig != nil {
				trig.Sample(v)
			}
			if hist != nil {
				hist.Add(v)
			}
		}
	}
}

// unitFlush is how many packed issue words addUnitTotals sums before it
// must flush its 16-bit lanes: 257 × 255 = 65,535 still fits.
const unitFlush = 257

// addUnitTotals adds the per-unit issue counts of the packed issue
// words qs (8 bits per unit, see packIssues) into tot. The even and odd
// unit bytes are summed in 16-bit SWAR lanes of two words and flushed
// into tot every unitFlush words.
func addUnitTotals(tot *[isa.NumUnits]uint64, qs []uint64) {
	const lanes = 0x00ff00ff00ff00ff
	for len(qs) > 0 {
		blk := qs[:min(len(qs), unitFlush)]
		qs = qs[len(blk):]
		var even, odd uint64
		for _, q := range blk {
			even += q & lanes
			odd += q >> 8 & lanes
		}
		for u := range tot {
			w := even
			if u&1 != 0 {
				w = odd
			}
			tot[u] += w >> (16 * uint(u/2)) & 0xffff
		}
	}
}

// finish fills the end-of-run fields: the chip counters, mean voltage
// and average power.
func (f *replayFold) finish(tr *chipTrace, N uint64, dt float64) {
	m := f.m
	m.Cycles = N
	m.Retired = tr.endRetired
	st := tr.endStats
	m.Branches, m.Mispredicts = st.Branches, st.Mispredicts
	m.L1Hits, m.L1Misses = st.L1Hits, st.L1Misses
	m.L2Hits, m.L2Misses = st.L2Hits, st.L2Misses
	m.L3Hits, m.L3Misses = st.L3Hits, st.L3Misses
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
	n       uint64  // cycles to stream: len(tr.energy)
	cyc     uint64  // next cycle to stream
	vbuf    []float64
}

// newLane prepares rc's replay of tr. The lane's kernel follows one
// rule: the reduced-order kernel whenever the platform tolerance admits
// the trace (romOK), the exact kernel otherwise.
func (cp *CompiledPlatform) newLane(slot int, tr *chipTrace, rc RunConfig, memoKey string) (*replayLane, error) {
	p := cp.p
	supply := p.PDN.VNom
	if rc.SupplyVolts > 0 {
		supply = rc.SupplyVolts
	}
	ln := &replayLane{slot: slot, memoKey: memoKey, tr: tr, supply: rc.SupplyVolts,
		div: p.Chip.CycleSeconds() * supply, add: p.Power.LeakageAmps(p.Chip.Modules, supply),
		n: uint64(len(tr.energy))}
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
	ln.rom = cp.romOK(tr, ln.div, ln.add)
	return ln, nil
}

// replayPass is the replay driver: it streams lanes — all on the ROM
// or all on the exact kernel, per their rom flags — through one
// multi-lane kernel pass, folds every sample in the exact loop's order,
// and finishes each lane's Measurement (memoized when the lane has a
// memo key). Lanes retire independently as their streams end
// (swap-remove, mirroring the kernel's DropLane). At one lane both
// kernels run their scalar code, so a one-lane pass is the serial
// replay.
func (cp *CompiledPlatform) replayPass(lanes []*replayLane) {
	L := len(lanes)
	rom := lanes[0].rom
	defer func(start time.Time) {
		d := uint64(time.Since(start))
		cp.traces.count(func(s *TraceStats) {
			s.ReplayNS += d
			if rom {
				s.ROMReplays += uint64(L)
			} else {
				s.ExactReplays += uint64(L)
			}
		})
	}(time.Now())
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
	dsts := make([][]float64, L)
	srcs := make([][]float64, L)
	for l, ln := range live {
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
			if ln.cyc < ln.n {
				continue
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
		for _, ln := range live {
			n = min(n, ln.n-ln.cyc)
		}
		for l, ln := range live {
			dsts[l] = ln.vbuf[:n]
			srcs[l] = ln.tr.energy[ln.cyc : ln.cyc+n]
			divs[l], adds[l] = ln.div, ln.add
		}
		if rom {
			rb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], int(n))
		} else {
			pb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], adds[:w], int(n))
		}
		for l, ln := range live {
			ln.fold.scan(ln.cyc, srcs[l], ln.tr.issues[ln.cyc:ln.cyc+n], dsts[l])
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
