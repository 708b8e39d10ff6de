package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// mulColMajor computes y = A·x for A with column k at a[k*m:].
func mulColMajor(a, x []float64, m int) []float64 {
	y := make([]float64, m)
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			y[i] += a[k*m+i] * x[k]
		}
	}
	return y
}

func TestPeriodicSteadyState(t *testing.T) {
	sections := []int{2, 2, 1, 1}
	const m = 6
	a := make([]float64, m*m)
	set := func(i, k, v float64) { a[int(k)*m+int(i)] = v }
	// Two rotation-scale pairs and two real modes, all stable.
	set(0, 0, 0.9*math.Cos(0.4))
	set(1, 0, -0.9*math.Sin(0.4))
	set(0, 1, 0.9*math.Sin(0.4))
	set(1, 1, 0.9*math.Cos(0.4))
	set(2, 2, 0.99*math.Cos(0.05))
	set(3, 2, -0.99*math.Sin(0.05))
	set(2, 3, 0.99*math.Sin(0.05))
	set(3, 3, 0.99*math.Cos(0.05))
	set(4, 4, 0.97)
	set(5, 5, -0.4)
	rng := rand.New(rand.NewSource(21))
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, m)
	if err := PeriodicSteadyState(sections, a, b, x); err != nil {
		t.Fatal(err)
	}
	ax := mulColMajor(a, x, m)
	for i := 0; i < m; i++ {
		if d := math.Abs(x[i] - ax[i] - b[i]); d > 1e-12 {
			t.Fatalf("row %d: (I-A)x - b = %g", i, d)
		}
	}
}

func TestPeriodicSteadyStateSingular(t *testing.T) {
	// A 1×1 section with eigenvalue exactly 1 has no fixed point.
	sections := []int{1, 1}
	a := []float64{1, 0, 0, 0.5}
	b := []float64{1, 1}
	x := make([]float64, 2)
	if err := PeriodicSteadyState(sections, a, b, x); err != ErrModalSingular {
		t.Fatalf("err = %v, want ErrModalSingular", err)
	}
	// A 2×2 rotation by θ with scale exactly 1 is also singular only
	// at θ=0; at θ>0 it has a fixed point even though |λ|=1.
	sections = []int{2}
	a = make([]float64, 4)
	a[0], a[1], a[2], a[3] = math.Cos(0.3), -math.Sin(0.3), math.Sin(0.3), math.Cos(0.3)
	if err := PeriodicSteadyState(sections, a, []float64{1, 0}, x); err != nil {
		t.Fatalf("pure rotation should still solve: %v", err)
	}
}

func TestSectionContractions(t *testing.T) {
	// Rotation-scale block: spectral norm is exactly the scale.
	sections := []int{2, 1}
	const m = 3
	a := make([]float64, m*m)
	r, th := 0.85, 0.7
	a[0*m+0] = r * math.Cos(th)
	a[0*m+1] = -r * math.Sin(th)
	a[1*m+0] = r * math.Sin(th)
	a[1*m+1] = r * math.Cos(th)
	a[2*m+2] = -0.6
	got := SectionContractions(sections, a)
	if math.Abs(got[0]-r) > 1e-12 {
		t.Fatalf("pair contraction %g, want %g", got[0], r)
	}
	if math.Abs(got[1]-0.6) > 1e-15 {
		t.Fatalf("single contraction %g, want 0.6", got[1])
	}
	// Verify σ_max is a true operator bound on a lopsided block.
	a2 := []float64{0.3, 0.8, -0.1, 0.5} // column-major 2×2
	sig := SectionContractions([]int{2}, a2)[0]
	rng := rand.New(rand.NewSource(4))
	for rep := 0; rep < 200; rep++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		nx := math.Hypot(x0, x1)
		y0 := a2[0]*x0 + a2[2]*x1
		y1 := a2[1]*x0 + a2[3]*x1
		if math.Hypot(y0, y1) > sig*nx*(1+1e-12) {
			t.Fatalf("‖Ax‖=%g exceeds σ‖x‖=%g", math.Hypot(y0, y1), sig*nx)
		}
	}
}

// TestROMModalRoundTrip pins the modal accessors: saving and restoring
// (μ, vstar) resumes a one-lane replay bit-identically, and wider batch
// lanes loaded via SetLaneModal step bit-identically to it.
func TestROMModalRoundTrip(t *testing.T) {
	cp, rom, _, _ := romFixture(t, pdnLadder3)
	m := rom.Order()
	secs := rom.Sections()
	sum := 0
	for _, sz := range secs {
		sum += sz
	}
	if sum != m {
		t.Fatalf("Sections %v sum %d, want order %d", secs, sum, m)
	}
	const steps = 400
	src := batchDrive(1, 2*steps)[0]
	rs := romLane(rom, cp.NewState(), 0.3)
	buf := make([]float64, steps)
	stepLane(rs, buf, src[:steps], 1e-12, 1e-10)
	mu := make([]float64, m)
	vstar := rs.LaneModal(0, mu)

	want := make([]float64, steps)
	stepLane(rs, want, src[steps:], 1e-12, 1e-10)

	// One-lane restore.
	rs2 := romLane(rom, cp.NewState(), 0)
	rs2.SetLaneModal(0, mu, vstar)
	got := make([]float64, steps)
	stepLane(rs2, got, src[steps:], 1e-12, 1e-10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("one-lane restore step %d: %v != %v", i, got[i], want[i])
		}
	}

	// Batch lanes restored from the same modal snapshot.
	const lanes = 3
	rb := rom.NewBatch(lanes)
	dst := make([][]float64, lanes)
	srcs := make([][]float64, lanes)
	mul := make([]float64, lanes)
	div := make([]float64, lanes)
	for l := 0; l < lanes; l++ {
		rb.SetLaneModal(l, mu, vstar)
		dst[l] = make([]float64, steps)
		srcs[l] = src[steps:]
		mul[l], div[l] = 1e-12, 1e-10
	}
	rb.StepTraceBatch(dst, srcs, mul, div, steps)
	back := make([]float64, m)
	for l := 0; l < lanes; l++ {
		for i := range want {
			if dst[l][i] != want[i] {
				t.Fatalf("batch lane %d step %d: %v != %v", l, i, dst[l][i], want[i])
			}
		}
		if v := rb.LaneModal(l, back); v != vstar {
			t.Fatalf("lane %d vstar %v, want %v", l, v, vstar)
		}
	}
}
