package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// eigenResidual verifies each computed eigenpair directly: ‖Av − λv‖
// small relative to ‖A‖·‖v‖.
func eigenResidual(t *testing.T, a []float64, n int) {
	t.Helper()
	wr, wi, err := eigenValues(a, n)
	if err != nil {
		t.Fatal(err)
	}
	anorm := matInfNorm(a, n)
	for i := 0; i < n; i++ {
		if wi[i] < 0 {
			continue // conjugate partner checked via wi > 0 slot
		}
		v, lam, err := eigenVector(a, n, wr[i], wi[i])
		if err != nil {
			t.Fatalf("eigenvector for λ=%g%+gi: %v", wr[i], wi[i], err)
		}
		worst := 0.0
		for r := 0; r < n; r++ {
			var av complex128
			for c := 0; c < n; c++ {
				av += complex(a[r*n+c], 0) * v[c]
			}
			if d := av - lam*v[r]; math.Hypot(real(d), imag(d)) > worst {
				worst = math.Hypot(real(d), imag(d))
			}
		}
		if worst > 1e-9*(1+anorm) {
			t.Fatalf("eigenpair residual %g for λ=%g%+gi", worst, wr[i], wi[i])
		}
	}
}

func TestEigenKnownSpectra(t *testing.T) {
	// Rotation-scale block: eigenvalues 0.9·(cos θ ± i sin θ).
	th := 0.3
	rot := []float64{0.9 * math.Cos(th), 0.9 * math.Sin(th), -0.9 * math.Sin(th), 0.9 * math.Cos(th)}
	wr, wi, err := eigenValues(rot, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(wr[i]-0.9*math.Cos(th)) > 1e-12 || math.Abs(math.Abs(wi[i])-0.9*math.Sin(th)) > 1e-12 {
			t.Fatalf("rotation block eigenvalue %d: got %g%+gi", i, wr[i], wi[i])
		}
	}
	// Triangular matrix: eigenvalues on the diagonal.
	tri := []float64{
		0.5, 1, 2,
		0, -0.25, 3,
		0, 0, 0.125,
	}
	wr, wi, err = eigenValues(tri, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), wr...)
	want := []float64{0.5, -0.25, 0.125}
	for _, w := range want {
		found := false
		for i, g := range got {
			if wi[i] == 0 && math.Abs(g-w) < 1e-12 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("triangular eigenvalue %g missing from %v", w, got)
		}
	}
	eigenResidual(t, tri, 3)
}

func TestEigenRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 4, 6, 8} {
		for rep := 0; rep < 10; rep++ {
			a := make([]float64, n*n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			eigenResidual(t, a, n)
		}
	}
}

// pdnLadder3 is a 3-stage RLC ladder shaped like the testbed PDN
// (board, package, die stages at widely separated frequencies): six
// reactive elements, so the reduced order matches the shipped network.
func pdnLadder3() (*Circuit, Node) {
	c := New()
	nIn := c.NewNode()
	nBoard := c.NewNode()
	nPkg := c.NewNode()
	nDie := c.NewNode()
	c.V("vin", nIn, Ground, 1.25)
	c.R("rb", nIn, nBoard, 0.5e-3)
	c.L("lb", nIn, nBoard, 10e-9)
	c.C("cb", nBoard, Ground, 5e-3)
	c.R("rp", nBoard, nPkg, 0.1e-3)
	c.L("lp", nBoard, nPkg, 50e-12)
	c.C("cp", nPkg, Ground, 50e-6)
	c.R("rd", nPkg, nDie, 0.1e-3)
	c.L("ld", nPkg, nDie, 2.5e-12)
	c.C("cd", nDie, Ground, 1e-6)
	c.I("sink", nDie, Ground, 0)
	return c, nDie
}

func romFixture(t testing.TB, build func() (*Circuit, Node)) (*Compiled, *ROM, Node, int) {
	t.Helper()
	c, out := build()
	cp, err := Compile(c, 1/3.3e9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cp.NewState().SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	rom, err := cp.CompileROM(out, ref)
	if err != nil {
		t.Fatal(err)
	}
	return cp, rom, out, ref
}

// romLane folds t (with constant drive add) into a one-lane ROM batch:
// the serial reduced-order replay.
func romLane(rom *ROM, t *Transient, add float64) *ROMBatch {
	rb := rom.NewBatch(1)
	rb.LoadLane(0, t, add)
	return rb
}

// stepLane advances a one-lane ROM batch over all of src.
func stepLane(rb *ROMBatch, dst, src []float64, mul, div float64) {
	rb.StepTraceBatch([][]float64{dst}, [][]float64{src}, []float64{mul}, []float64{div}, len(src))
}

func TestROMMatchesExactKernel(t *testing.T) {
	for name, build := range map[string]func() (*Circuit, Node){
		"rlc":  rlcLadder,
		"pdn3": pdnLadder3,
	} {
		t.Run(name, func(t *testing.T) {
			cp, rom, out, ref := romFixture(t, build)
			if rom.Order() != cp.reduceOrder() {
				t.Fatalf("ROM order %d, want %d", rom.Order(), cp.reduceOrder())
			}
			rng := rand.New(rand.NewSource(5))
			const steps = 4000
			for rep := 0; rep < 4; rep++ {
				src := make([]float64, steps)
				amp := 1 + rng.Float64()*20
				for i := range src {
					src[i] = amp * rng.Float64()
				}
				add := rng.Float64() * 0.5
				wantV := make([]float64, steps)
				te := cp.NewState()
				te.StepTrace(out, ref, wantV, src, 1, 1, add)

				gotV := make([]float64, steps)
				stepLane(romLane(rom, cp.NewState(), add), gotV, src, 1, 1)

				bound := rom.ErrPerAmpV() * (amp + add)
				worst := 0.0
				for i := range wantV {
					if d := math.Abs(wantV[i] - gotV[i]); d > worst {
						worst = d
					}
				}
				if worst > bound {
					t.Fatalf("rep %d: ROM error %g exceeds declared bound %g (amp %g)", rep, worst, bound, amp)
				}
				if worst > 1e-6 {
					t.Fatalf("rep %d: ROM error %g unexpectedly large", rep, worst)
				}
			}
		})
	}
}

// TestROMEquilibriumFolding holds the drive constant: the ROM must sit
// exactly on the exact kernel's settled value (the fold solves the
// equilibrium through the exact reduced map, not the modal
// approximation).
func TestROMEquilibriumFolding(t *testing.T) {
	cp, rom, out, ref := romFixture(t, pdnLadder3)
	const add = 7.5
	const steps = 200000
	src := make([]float64, steps)
	wantV := make([]float64, steps)
	te := cp.NewState()
	te.StepTrace(out, ref, wantV, src, 1, 1, add)
	gotV := make([]float64, steps)
	stepLane(romLane(rom, cp.NewState(), add), gotV, src, 1, 1)
	if d := math.Abs(wantV[steps-1] - gotV[steps-1]); d > 1e-9 {
		t.Fatalf("settled value drifted by %g", d)
	}
}

func TestROMBatchBitIdenticalToSerial(t *testing.T) {
	cp, rom, _, _ := romFixture(t, pdnLadder3)
	const steps = 600
	for _, lanes := range []int{1, 2, 5, 16, 32} {
		src := batchDrive(lanes, steps)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		adds := make([]float64, lanes)
		dst := make([][]float64, lanes)
		rb := rom.NewBatch(lanes)
		for l := 0; l < lanes; l++ {
			mul[l] = 1e-12
			div[l] = 1e-10 * (1.1 + 0.01*float64(l))
			adds[l] = 0.25 + 0.03*float64(l)
			dst[l] = make([]float64, steps)
			rb.LoadLane(l, cp.NewState(), adds[l])
		}
		rb.StepTraceBatch(dst, src, mul, div, steps)
		for l := 0; l < lanes; l++ {
			want := make([]float64, steps)
			stepLane(romLane(rom, cp.NewState(), adds[l]), want, src[l], mul[l], div[l])
			for i := range want {
				if dst[l][i] != want[i] {
					t.Fatalf("lanes=%d lane %d step %d: batch %v != one-lane %v", lanes, l, i, dst[l][i], want[i])
				}
			}
		}
	}
}

func TestROMBatchDropLaneMidStream(t *testing.T) {
	cp, rom, _, _ := romFixture(t, pdnLadder3)
	const lanes = 4
	const steps = 300
	src := batchDrive(lanes, steps)
	ones := []float64{1, 1, 1, 1}
	dst := make([][]float64, lanes)
	rb := rom.NewBatch(lanes)
	for l := 0; l < lanes; l++ {
		dst[l] = make([]float64, steps)
		rb.LoadLane(l, cp.NewState(), 0)
	}
	half := steps / 2
	rb.StepTraceBatch(dst, src, ones, ones, half)
	rb.DropLane(1)
	dst[1], src[1] = dst[3], src[3]
	rest := make([][]float64, 3)
	restSrc := make([][]float64, 3)
	for l := 0; l < 3; l++ {
		rest[l] = dst[l][half:]
		restSrc[l] = src[l][half:]
	}
	rb.StepTraceBatch(rest, restSrc, ones, ones, steps-half)
	for _, l := range []int{0, 2, 3} {
		want := make([]float64, steps)
		stepLane(romLane(rom, cp.NewState(), 0), want, src[l], 1, 1)
		for i := range want {
			if dst[l][i] != want[i] {
				t.Fatalf("lane %d step %d after DropLane: %v != %v", l, i, dst[l][i], want[i])
			}
		}
	}
	if rb.Lanes() != 3 {
		t.Fatalf("Lanes() = %d after one drop from 4", rb.Lanes())
	}
}

// TestROMMidStreamLoad folds from an already-excited state: the lane
// must continue the exact trajectory within the bound, not restart
// from DC.
func TestROMMidStreamLoad(t *testing.T) {
	cp, rom, out, ref := romFixture(t, pdnLadder3)
	const pre, post = 500, 2000
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, pre+post)
	for i := range src {
		src[i] = 10 * rng.Float64()
	}
	te := cp.NewState()
	buf := make([]float64, pre)
	te.StepTrace(out, ref, buf, src[:pre], 1, 1, 0.3)
	want := make([]float64, post)
	cont := te.Clone()
	cont.StepTrace(out, ref, want, src[pre:], 1, 1, 0.3)

	got := make([]float64, post)
	stepLane(romLane(rom, te, 0.3), got, src[pre:], 1, 1)
	bound := rom.ErrPerAmpV() * 10.3 * 2 // drive plus the folded history
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > bound && d > 1e-6 {
			t.Fatalf("step %d: mid-stream ROM error %g (bound %g)", i, d, bound)
		}
	}
}

func BenchmarkStepTraceBatchROM(b *testing.B) {
	cp, rom, out, ref := romFixture(b, pdnLadder3)
	const steps = 65536
	for _, kernel := range []string{"Exact", "ROM"} {
		for _, lanes := range []int{8, 32} {
			src := make([][]float64, lanes)
			dst := make([][]float64, lanes)
			mul := make([]float64, lanes)
			div := make([]float64, lanes)
			add := make([]float64, lanes)
			for l := 0; l < lanes; l++ {
				s := make([]float64, steps)
				for i := range s {
					s[i] = 10 + 8*math.Sin(float64(i)/9+float64(l))
				}
				src[l] = s
				dst[l] = make([]float64, steps)
				mul[l], div[l], add[l] = 1, 1, 0.2
			}
			b.Run(fmt.Sprintf("%s/Lanes%d", kernel, lanes), func(b *testing.B) {
				b.SetBytes(int64(steps * 8))
				for i := 0; i < b.N; i++ {
					if kernel == "ROM" {
						rb := rom.NewBatch(lanes)
						for l := 0; l < lanes; l++ {
							rb.LoadLane(l, cp.NewState(), add[l])
						}
						rb.StepTraceBatch(dst, src, mul, div, steps)
					} else {
						tb := cp.NewBatch(lanes)
						for l := 0; l < lanes; l++ {
							tb.LoadLane(l, cp.NewState())
						}
						tb.StepTraceBatch(out, ref, dst, src, mul, div, add, steps)
					}
				}
			})
		}
	}
}
