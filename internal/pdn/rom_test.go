package pdn

import (
	"math"
	"testing"
)

const romTestDt = 1 / 3.3e9

// romNoise fills dst with deterministic uniform [0, amp) samples.
func romNoise(dst []float64, amp float64, seed uint64) {
	for i := range dst {
		seed = seed*6364136223846793005 + 1442695040888963407
		dst[i] = amp * float64(seed>>11) / float64(1<<53)
	}
}

// romReplay folds p (plus add amps on the sink) into a one-lane ROM
// batch — the serial reduced-order replay — and streams src through it.
func romReplay(t *testing.T, cp *Compiled, p *PDN, add float64, dst, src []float64, mul, div float64) {
	t.Helper()
	rb, err := cp.NewROMBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	rb.LoadLane(0, p, add)
	rb.StepTraceBatch([][]float64{dst}, [][]float64{src}, []float64{mul}, []float64{div}, len(src))
}

// TestROMCompilesForAllPresets requires every shipped network to admit
// a reduced-order model with a usable calibrated error bound — if a
// preset's modal decomposition degrades, replay silently loses its
// fast path, so this fails loudly instead.
func TestROMCompilesForAllPresets(t *testing.T) {
	for _, cfg := range Presets() {
		cp, err := Compile(cfg, romTestDt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cp.ROM()
		if err != nil {
			t.Fatalf("%s: ROM compile failed: %v", cfg.Name, err)
		}
		if r.Order() != 6 {
			t.Errorf("%s: reduced order = %d, want 6 (3 caps + 3 inductors)", cfg.Name, r.Order())
		}
		if e := r.ErrPerAmpV(); !(e > 0) || e > 1e-4 {
			t.Errorf("%s: ErrPerAmpV = %g, want (0, 1e-4]", cfg.Name, e)
		}
	}
}

// TestROMWithinToleranceAcrossPresets is the core equivalence
// property: for every preset, across randomized current traces,
// constant sink offsets (the testbed's dither/amps-conversion `add`
// path), and the voltage-at-failure supply ladder, the ROM die-voltage
// waveform stays within ErrPerAmpV × (peak drive amps) of the exact
// kernel.
func TestROMWithinToleranceAcrossPresets(t *testing.T) {
	const n = 6000
	for _, cfg := range Presets() {
		cp, err := Compile(cfg, romTestDt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cp.ROM()
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n)
		dstE := make([]float64, n)
		dstR := make([]float64, n)
		seed := uint64(1)
		for rep := 0; rep < 6; rep++ {
			amp := 1.0 + 9*float64(rep)
			add := 0.6 * float64(rep%3)
			mul := 1.0 + 0.25*float64(rep)
			div := 1.0 + float64(rep%2)
			// Failure-ladder supply: 12.5 mV per rung below nominal.
			supply := cfg.VNom - 0.0125*float64(rep)
			romNoise(src, amp, seed)
			seed += 0x9e3779b9

			p := cp.New()
			p.SetSupply(supply)
			// Settle briefly so the fold starts from a non-equilibrium
			// mid-transient state, like a real replay would.
			for i := 0; i < 100; i++ {
				p.Step(add)
			}
			romReplay(t, cp, p, add, dstR, src, mul, div)
			p.StepTrace(dstE, src, mul, div, add)

			bound := r.ErrPerAmpV() * (amp*mul/div + add)
			worst := 0.0
			for i := range dstE {
				if d := math.Abs(dstE[i] - dstR[i]); d > worst {
					worst = d
				}
			}
			if worst > bound {
				t.Errorf("%s rep %d: worst |Δv| = %g exceeds bound %g", cfg.Name, rep, worst, bound)
			}
			if worst > 1e-6 {
				t.Errorf("%s rep %d: worst |Δv| = %g exceeds 1 µV sanity cap", cfg.Name, rep, worst)
			}
		}
	}
}

// TestROMBatchMatchesSerialWideLanes pins the serial↔batch bit-identity
// contract at the pdn layer for lane widths past the exact kernel's
// old practical limit (16, 32), with distinct per-lane drives, scales
// and folded offsets; the serial reference is a one-lane batch.
func TestROMBatchMatchesSerialWideLanes(t *testing.T) {
	const n = 2500
	cp, err := Compile(Bulldozer(), romTestDt)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{16, 32} {
		rb, err := cp.NewROMBatch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		src := make([][]float64, lanes)
		dst := make([][]float64, lanes)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		adds := make([]float64, lanes)
		states := make([]*PDN, lanes)
		serial := make([]float64, n)
		for l := 0; l < lanes; l++ {
			src[l] = make([]float64, n)
			romNoise(src[l], 5+float64(l), uint64(l)+7)
			dst[l] = make([]float64, n)
			mul[l] = 1 + 0.1*float64(l)
			div[l] = 1 + float64(l%3)
			adds[l] = 0.2 * float64(l%5)
			p := cp.New()
			for i := 0; i < 50+l; i++ {
				p.Step(adds[l])
			}
			rb.LoadLane(l, p, adds[l])
			states[l] = p
		}
		rb.StepTraceBatch(dst, src, mul, div, n)
		for l := 0; l < lanes; l++ {
			romReplay(t, cp, states[l], adds[l], serial, src[l], mul[l], div[l])
			for i := range serial {
				if dst[l][i] != serial[i] {
					t.Fatalf("lanes=%d lane %d step %d: batch %v != serial %v", lanes, l, i, dst[l][i], serial[i])
				}
			}
		}
	}
}

// TestROMBenchDrive cross-checks the benchmark's drive shape through
// both kernels so BenchmarkStepTraceBatch's Exact and ROM variants are
// known to compute the same waveform to tolerance (the benchmark
// itself never compares outputs).
func TestROMBenchDrive(t *testing.T) {
	const n = 4096
	cp, err := Compile(Bulldozer(), romTestDt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cp.ROM()
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n)
	for i := range src {
		src[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/36) + 5*math.Sin(2*math.Pi*float64(i)/7)
	}
	dstE := make([]float64, n)
	dstR := make([]float64, n)
	p := cp.New()
	romReplay(t, cp, p, 0, dstR, src, 1, 1)
	p.StepTrace(dstE, src, 1, 1, 0)
	bound := r.ErrPerAmpV() * 40
	for i := range dstE {
		if d := math.Abs(dstE[i] - dstR[i]); d > bound {
			t.Fatalf("step %d: |Δv| = %g exceeds bound %g", i, d, bound)
		}
	}
}
