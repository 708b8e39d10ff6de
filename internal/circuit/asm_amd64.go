//go:build amd64 && !noasm

package circuit

import "unsafe"

// AVX2 assembly fast paths for the two replay hot kernels: the
// register-blocked LU substitution lanes (solveBatch) and the ROM
// modal step (romStepKernel) in 4-lane groups. Both map lanes to SIMD
// slots so each lane performs exactly the scalar kernel's
// floating-point operation sequence — multiply then subtract as two
// rounded operations, never a fused multiply-add — which makes the
// assembly bit-identical to the pure-Go kernels by construction, not
// merely close. The `noasm` build tag (or a non-amd64 target, or
// pre-AVX2 hardware) falls back to the unchanged Go kernels.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func fwdRowAVX2(row []float64, x []float64, i, L int)

//go:noescape
func backRowAVX2(row []float64, d float64, x []float64, i, base, L int)

//go:noescape
func romStep4AVX2(a *romStep4Args)

// haveAVX2 gates the assembly kernels on hardware and OS support:
// CPUID must report OSXSAVE+AVX and AVX2, and XCR0 must show the OS
// saving XMM+YMM state across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if c&osxsaveAVX != osxsaveAVX {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}

// solveBatchAVX2 runs the substitution sweeps through the AVX2 row
// kernels: per row, the shared coefficients broadcast across SIMD
// slots holding adjacent lanes (contiguous in the lane-minor layout),
// exactly the amortization the Go register blocks perform — but with
// 4 lanes per arithmetic instruction. The lane remainder (L mod 4) is
// handled inside the row kernels with VEX scalar ops in the same
// operation order.
func (f *luReal) solveBatchAVX2(b, x []float64, L int) {
	n := f.n
	lu := f.lu
	for i := 0; i < n; i++ {
		copy(x[i*L:i*L+L], b[f.perm[i]*L:f.perm[i]*L+L])
	}
	for i := 1; i < n; i++ {
		fwdRowAVX2(lu[i*n:i*n+i], x, i, L)
	}
	for i := n - 1; i >= 0; i-- {
		backRowAVX2(lu[i*n+i+1:i*n+n], lu[i*n+i], x, i, (i+1)*L, L)
	}
}

// romStep4Args is the argument block for romStep4AVX2. Every field is
// 8 bytes, so the assembly's fixed offsets follow the declaration
// order; the layout guards below pin them at compile time.
type romStep4Args struct {
	pairs    unsafe.Pointer // *romPair, nPairs entries
	nPairs   int64
	singles  unsafe.Pointer // *romSingle, nSingles entries
	nSingles int64
	du       float64
	vstar    unsafe.Pointer // *float64: 4 contiguous lane equilibria
	mu       unsafe.Pointer // *float64: lane-minor SoA column base, 4 contiguous lanes per row
	muStride int64          // SoA row stride in bytes (lanes × 8)
	dst      [4]unsafe.Pointer
	src      [4]unsafe.Pointer
	rmul     [4]float64
	n        int64
}

// Compile-time layout guards: the assembly addresses romStep4Args,
// romPair and romSingle by fixed byte offsets.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(romStep4Args{})-168]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.du)-32]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.vstar)-40]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.mu)-48]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.dst)-64]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.src)-96]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.rmul)-128]
	_ = [1]struct{}{}[unsafe.Offsetof(romStep4Args{}.n)-160]
	_ = [1]struct{}{}[unsafe.Sizeof(romPair{})-48]
	_ = [1]struct{}{}[unsafe.Sizeof(romSingle{})-24]
)

// stepLanes4AVX2 advances lanes l..l+3 of rb n steps through the AVX2
// modal kernel. The lane-minor SoA layout puts the 4 lanes' modal
// coordinates adjacent in memory, so the kernel loads and stores them
// as single 256-bit vectors with no gather/scatter; per SIMD slot the
// arithmetic is romStepKernel's exactly, so each lane stays
// bit-identical to a one-lane replay.
func (rb *ROMBatch) stepLanes4AVX2(l int, dst, src [][]float64, mul, div []float64, n int) {
	r := rb.rom
	a := romStep4Args{
		nPairs:   int64(len(r.pairs)),
		nSingles: int64(len(r.singles)),
		du:       r.du,
		vstar:    unsafe.Pointer(&rb.vstar[l]),
		mu:       unsafe.Pointer(&rb.mu[l]),
		muStride: int64(rb.lanes) * 8,
		n:        int64(n),
	}
	if len(r.pairs) > 0 {
		a.pairs = unsafe.Pointer(&r.pairs[0])
	}
	if len(r.singles) > 0 {
		a.singles = unsafe.Pointer(&r.singles[0])
	}
	for k := 0; k < 4; k++ {
		a.dst[k] = unsafe.Pointer(&dst[l+k][0])
		a.src[k] = unsafe.Pointer(&src[l+k][0])
		a.rmul[k] = mul[l+k] / div[l+k]
	}
	romStep4AVX2(&a)
}
