package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These suites pin the asm/Go kernel equivalence contract: whatever
// kernel TransientBatch.StepTraceBatch and ROMBatch.StepTraceBatch
// dispatch to on this build (AVX2 assembly on amd64, pure Go under
// `noasm` or elsewhere) must be bit-identical to the pure-Go reference
// at every batch width. CI runs them both with and without the noasm
// tag.

// testLU factors a random diagonally dominant n×n system.
func testLU(t testing.TB, n int, seed int64) *luReal {
	return testLUZeros(t, n, seed, 0)
}

// testLUZeros factors a random diagonally dominant n×n system whose
// off-diagonal entries are forced to exact zeros with probability
// zeroFrac, so the factor has structural zeros for the sparse
// substitution to skip.
func testLUZeros(t testing.TB, n int, seed int64, zeroFrac float64) *luReal {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || zeroFrac == 0 || rng.Float64() >= zeroFrac {
				a[i*n+j] = rng.NormFloat64()
			}
		}
		a[i*n+i] += float64(n) + 1
	}
	lu, err := factorReal(a, n)
	if err != nil {
		t.Fatal(err)
	}
	return lu
}

// ladderLU is the factor of the pdnLadder3 transient system: 38 of its
// 56 off-diagonal entries are nonzero.
func ladderLU(t testing.TB) *luReal {
	cp, _, _, _ := romFixture(t, pdnLadder3)
	return cp.lu
}

// guardWords is how many sentinel words follow a guarded buffer.
const guardWords = 8

// guarded returns a length-n buffer whose capacity holds guardWords
// sentinels past its end, so a kernel that writes beyond its lanes is
// caught.
func guarded(n int) []float64 {
	buf := make([]float64, n+guardWords)
	for i := n; i < len(buf); i++ {
		buf[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	return buf[:n]
}

func checkGuard(t *testing.T, x []float64, what string, L int) {
	t.Helper()
	for i, v := range x[len(x) : len(x)+guardWords] {
		if math.Float64bits(v) != 0x7ff8dead0000beef {
			t.Fatalf("%s L=%d: wrote past the last lane (guard word %d)", what, L, i)
		}
	}
}

// offDiagNonzeros counts the entries the sparse kernels walk.
func offDiagNonzeros(f *luReal) int {
	nz := 0
	for i := range f.lower {
		nz += len(f.lower[i]) + len(f.upper[i])
	}
	return nz
}

// solveDense is the dense serial substitution — every coefficient of
// the packed factor, zeros included. The sparse kernels must equal it
// by value on finite input; only the sign of an exact zero may differ.
func solveDense(f *luReal, b, x []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// signedRHS fills an n×L lane-minor right-hand side with a mix of
// normal draws (half of them negative), exact +0 and exact −0.
func signedRHS(rng *rand.Rand, n, L int) []float64 {
	b := make([]float64, n*L)
	for i := range b {
		switch r := rng.Float64(); {
		case r < 0.2:
			b[i] = 0
		case r < 0.4:
			b[i] = math.Copysign(0, -1)
		default:
			b[i] = rng.NormFloat64()
		}
	}
	return b
}

// romStepBatchGo is the pure-Go lane-major batch loop — the reference
// StepTraceBatch's dispatch is checked against.
func romStepBatchGo(rb *ROMBatch, dst, src [][]float64, mul, div []float64, n int) {
	L := rb.lanes
	muLane := rb.muLane
	for l := 0; l < L; l++ {
		gather(muLane, rb.mu, L, l)
		romStepKernel(rb.rom, muLane, rb.vstar[l], dst[l][:n], src[l], mul[l], div[l], n)
		scatter(rb.mu, muLane, L, l)
	}
}

// TestSolveBatchDispatchBitIdentical holds solveBatch, the Go
// multi-lane kernel's substitution, to the serial solve bit for bit on
// every lane and to the dense substitution by value, at widths that
// meet every 8-, 4- and 1-lane block mix, and checks it writes nothing
// past the last lane. The fused kernel's own substitution is held to
// it through TestStepTraceBatchDispatchBitIdentical.
func TestSolveBatchDispatchBitIdentical(t *testing.T) {
	factors := []struct {
		name string
		lu   *luReal
	}{
		{"dense1", testLU(t, 1, 101)},
		{"dense3", testLU(t, 3, 103)},
		{"dense15", testLU(t, 15, 115)},
		{"dense24", testLU(t, 24, 124)},
		{"ladder", ladderLU(t)},
		{"zeros15", testLUZeros(t, 15, 215, 0.7)},
		{"zeros24", testLUZeros(t, 24, 224, 0.85)},
	}
	totalFlips := 0
	for fi, fx := range factors {
		lu, n := fx.lu, fx.lu.n
		t.Logf("%s: %d of %d off-diagonal entries nonzero", fx.name, offDiagNonzeros(lu), n*n-n)
		rng := rand.New(rand.NewSource(int64(fi)))
		flips := 0
		for _, L := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16, 32} {
			b := signedRHS(rng, n, L)
			got := guarded(n * L)
			lu.solveBatch(b, got, L)
			checkGuard(t, got, fx.name+" batch", L)
			// Per lane: bitwise against the serial solver, by value
			// against the dense reference.
			bl := make([]float64, n)
			xl := make([]float64, n)
			xd := make([]float64, n)
			for l := 0; l < L; l++ {
				gather(bl, b, L, l)
				lu.solve(bl, xl)
				solveDense(lu, bl, xd)
				for i := 0; i < n; i++ {
					if math.Float64bits(got[i*L+l]) != math.Float64bits(xl[i]) {
						t.Fatalf("%s L=%d lane %d row %d: batch %v != serial %v", fx.name, L, l, i, got[i*L+l], xl[i])
					}
					if xl[i] == 0 && math.Signbit(xl[i]) != math.Signbit(xd[i]) {
						flips++
					}
					if xl[i] != xd[i] {
						t.Fatalf("%s L=%d lane %d row %d: sparse %v != dense %v", fx.name, L, l, i, xl[i], xd[i])
					}
				}
			}
		}
		t.Logf("%s: %d results differ from dense only in the sign of zero", fx.name, flips)
		totalFlips += flips
	}
	if totalFlips == 0 {
		t.Error("no result exercised the sign-of-zero clause")
	}
}

// TestSparseSolveZeroContract pins the two ways skipping a zero
// coefficient can show, on a factor with structural zeros (a diagonal
// system, whose L and U are all zero off the diagonal): a −0 the
// dense substitution turns into +0 stays −0, and an infinity does not
// become NaN through a 0·∞ term. Every other value is bit-identical.
func TestSparseSolveZeroContract(t *testing.T) {
	lu, err := factorReal([]float64{2, 0, 0, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nz := offDiagNonzeros(lu); nz != 0 {
		t.Fatalf("diagonal factor kept %d off-diagonal entries", nz)
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name          string
		b             [2]float64
		sparse, dense [2]float64
	}{
		// Dense row 1: −0 − 0·(−1) = −0 − (−0) = +0.
		{"sign of zero", [2]float64{-1, negZero}, [2]float64{-0.5, negZero}, [2]float64{-0.5, 0}},
		// Dense row 1: 1 − 0·∞ = NaN, which row 0 then picks up.
		{"no NaN from 0·inf", [2]float64{math.Inf(1), 1}, [2]float64{math.Inf(1), 1.0 / 3}, [2]float64{math.NaN(), math.NaN()}},
	} {
		xd := make([]float64, 2)
		solveDense(lu, tc.b[:], xd)
		for i := range xd {
			if math.Float64bits(xd[i]) != math.Float64bits(tc.dense[i]) && !(math.IsNaN(xd[i]) && math.IsNaN(tc.dense[i])) {
				t.Fatalf("%s: dense x[%d] = %v, want %v", tc.name, i, xd[i], tc.dense[i])
			}
		}
		for _, L := range []int{1, 2, 3, 4, 8, 13} {
			b := make([]float64, 2*L)
			for l := 0; l < L; l++ {
				scatter(b, tc.b[:], L, l)
			}
			x := make([]float64, 2*L)
			lu.solveBatch(b, x, L)
			for i := 0; i < 2*L; i++ {
				if want := tc.sparse[i/L]; math.Float64bits(x[i]) != math.Float64bits(want) {
					t.Fatalf("%s L=%d: x[%d] = %v, want %v", tc.name, L, i, x[i], want)
				}
			}
		}
	}
}

// TestROMStepBatchDispatchBitIdentical runs every width from 1 to 13,
// 16, 17 and 32 lanes in two chunks, dropping a lane between them where
// the batch has more than one, so the AVX2 build meets every tail of
// 1–3 lanes both from the start and after a mid-stream DropLane. The
// dispatch must equal the pure-Go lane loop bitwise in every output and
// end state, and must not write past n in any dst.
func TestROMStepBatchDispatchBitIdentical(t *testing.T) {
	cp, rom, _, _ := romFixture(t, pdnLadder3)
	const steps, n1 = 500, 237
	const sentinel = 0x7ff8dead0000beef
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 32}
	for _, lanes := range widths {
		src := batchDrive(lanes, steps)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		got := make([][]float64, lanes)
		want := make([][]float64, lanes)
		rb := rom.NewBatch(lanes)
		ref := rom.NewBatch(lanes)
		for l := 0; l < lanes; l++ {
			mul[l] = 1e-12
			div[l] = 1e-10 * (1.2 + 0.02*float64(l))
			got[l] = guarded(steps)
			want[l] = make([]float64, steps)
			for i := n1; i < steps; i++ {
				got[l][i] = math.Float64frombits(sentinel)
			}
			add := 0.1 + 0.05*float64(l)
			rb.LoadLane(l, cp.NewState(), add)
			ref.LoadLane(l, cp.NewState(), add)
		}
		rb.StepTraceBatch(got, src, mul, div, n1)
		romStepBatchGo(ref, want, src, mul, div, n1)
		for l := 0; l < lanes; l++ {
			for i := n1; i < steps; i++ {
				if math.Float64bits(got[l][i]) != sentinel {
					t.Fatalf("lanes=%d lane %d: first chunk of %d steps wrote step %d", lanes, l, n1, i)
				}
			}
		}
		// Drop lane 0 (the last lane moves into its slot) on both sides,
		// and keep the per-lane streams in the batches' lane order.
		live := make([]int, lanes)
		for l := range live {
			live[l] = l
		}
		if lanes > 1 {
			rb.DropLane(0)
			ref.DropLane(0)
			live[0] = live[lanes-1]
			live = live[:lanes-1]
		}
		w := len(live)
		gd, wd, sd := make([][]float64, w), make([][]float64, w), make([][]float64, w)
		mw, dw := make([]float64, w), make([]float64, w)
		for k, l := range live {
			gd[k], wd[k], sd[k] = got[l][n1:], want[l][n1:], src[l][n1:]
			mw[k], dw[k] = mul[l], div[l]
		}
		rb.StepTraceBatch(gd, sd, mw, dw, steps-n1)
		romStepBatchGo(ref, wd, sd, mw, dw, steps-n1)
		for _, l := range live {
			checkGuard(t, got[l], "ROM dispatch", lanes)
			for i := 0; i < steps; i++ {
				if math.Float64bits(got[l][i]) != math.Float64bits(want[l][i]) {
					t.Fatalf("lanes=%d lane %d step %d: dispatch %v != pure Go %v", lanes, l, i, got[l][i], want[l][i])
				}
			}
		}
		// End states must match too — the next chunk continues from mu.
		gm := make([]float64, rom.Order())
		wm := make([]float64, rom.Order())
		for k := 0; k < w; k++ {
			gather(gm, rb.mu, rb.lanes, k)
			gather(wm, ref.mu, ref.lanes, k)
			gv, wv := rb.vstar[k], ref.vstar[k]
			if gv != wv {
				t.Fatalf("lanes=%d lane %d: vstar %v != %v", lanes, live[k], gv, wv)
			}
			for i := range gm {
				if math.Float64bits(gm[i]) != math.Float64bits(wm[i]) {
					t.Fatalf("lanes=%d lane %d coord %d: mu %v != %v", lanes, live[k], i, gm[i], wm[i])
				}
			}
		}
	}
}

// BenchmarkROMStepBatchKernel compares the lane-major pure-Go modal
// kernel against the 4-lane AVX2 groups. Widths 1, 3 and 11 end in a
// padded tail group.
func BenchmarkROMStepBatchKernel(b *testing.B) {
	cp, rom, _, _ := romFixture(b, pdnLadder3)
	const steps = 65536
	for _, lanes := range []int{1, 3, 8, 11, 32} {
		src := batchDrive(lanes, steps)
		dst := make([][]float64, lanes)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		for l := 0; l < lanes; l++ {
			dst[l] = make([]float64, steps)
			mul[l], div[l] = 1, 1
		}
		mk := func() *ROMBatch {
			rb := rom.NewBatch(lanes)
			for l := 0; l < lanes; l++ {
				rb.LoadLane(l, cp.NewState(), 0.2)
			}
			return rb
		}
		b.Run(fmt.Sprintf("go/Lanes%d", lanes), func(b *testing.B) {
			rb := mk()
			b.SetBytes(int64(steps * 8 * lanes))
			for i := 0; i < b.N; i++ {
				romStepBatchGo(rb, dst, src, mul, div, steps)
			}
		})
		b.Run(fmt.Sprintf("asm/Lanes%d", lanes), func(b *testing.B) {
			if !haveAVX2 {
				b.Skip("AVX2 kernels unavailable in this build")
			}
			rb := mk()
			b.SetBytes(int64(steps * 8 * lanes))
			for i := 0; i < b.N; i++ {
				rb.StepTraceBatch(dst, src, mul, div, steps)
			}
		})
	}
}
