//go:build amd64 && !noasm

package circuit

import "unsafe"

// AVX2 assembly fast paths for the two replay hot kernels: the
// register-blocked sparse LU substitution (solveBatch) and the ROM
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
func solveAVX2(b, x *float64, L int, perm *int, lower, upper *[]luEntry, diag *float64, n int)

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

// solveBatchAVX2 runs the whole solve as one call into the AVX2
// kernel: per row, each nonzero coefficient broadcasts across SIMD
// slots holding adjacent lanes (contiguous in the lane-minor layout),
// exactly the amortization the Go register blocks perform — but with
// 4 lanes per arithmetic instruction. Lanes past the last 4-lane block
// run as one 2-lane xmm block and one VEX scalar lane, in the same
// operation order. It beats the Go kernel from two lanes up.
func (f *luReal) solveBatchAVX2(b, x []float64, L int) {
	n := f.n
	if len(b) < n*L || len(x) < n*L {
		panic("circuit: solveBatch buffer shorter than n×L")
	}
	solveAVX2(&b[0], &x[0], L, &f.perm[0], &f.lower[0], &f.upper[0], &f.diag[0], n)
}

// The assembly reads luReal's row lists as 24-byte slice headers of
// 16-byte {col, val} records.
var (
	_ = [1]struct{}{}[unsafe.Sizeof([]luEntry{})-24]
	_ = [1]struct{}{}[unsafe.Sizeof(luEntry{})-16]
	_ = [1]struct{}{}[unsafe.Offsetof(luEntry{}.val)-8]
)

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
	rb.step4AVX2(&rb.mu[l], rb.lanes, &rb.vstar[l], [4]int{l, l + 1, l + 2, l + 3}, dst, src, mul, div, n)
}

// stepTailAVX2 advances the last t = lanes−l lanes of rb (1 ≤ t ≤ 3) n
// steps as one padded 4-lane group. Their modal rows are gathered into
// the batch's 4-lane scratch; each padding slot is a bitwise copy of
// the last real lane — state, equilibrium, drive and rmul — and stores
// into that lane's dst. A padding slot therefore writes exactly the
// bits its lane writes, to the same addresses, so store order cannot
// matter and no padding buffer exists. The real lanes' rows are
// scattered back after the group.
func (rb *ROMBatch) stepTailAVX2(l int, dst, src [][]float64, mul, div []float64, n int) {
	L := rb.lanes
	var js [4]int
	for k := range js {
		js[k] = min(l+k, L-1)
		gather(rb.muLane, rb.mu, L, js[k])
		scatter(rb.tailMu, rb.muLane, 4, k)
		rb.tailVstar[k] = rb.vstar[js[k]]
	}
	rb.step4AVX2(&rb.tailMu[0], 4, &rb.tailVstar[0], js, dst, src, mul, div, n)
	for k := 0; l+k < L; k++ {
		gather(rb.muLane, rb.tailMu, 4, k)
		scatter(rb.mu, rb.muLane, L, l+k)
	}
}

// step4AVX2 runs one 4-lane group: modal rows from mu with a row stride
// of `stride` lanes, equilibria from vstar, and SIMD slot k streaming
// lane js[k]'s src into its dst.
func (rb *ROMBatch) step4AVX2(mu *float64, stride int, vstar *float64, js [4]int, dst, src [][]float64, mul, div []float64, n int) {
	r := rb.rom
	a := romStep4Args{
		nPairs:   int64(len(r.pairs)),
		nSingles: int64(len(r.singles)),
		du:       r.du,
		vstar:    unsafe.Pointer(vstar),
		mu:       unsafe.Pointer(mu),
		muStride: int64(stride) * 8,
		n:        int64(n),
	}
	if len(r.pairs) > 0 {
		a.pairs = unsafe.Pointer(&r.pairs[0])
	}
	if len(r.singles) > 0 {
		a.singles = unsafe.Pointer(&r.singles[0])
	}
	for k, j := range js {
		a.dst[k] = unsafe.Pointer(&dst[j][0])
		a.src[k] = unsafe.Pointer(&src[j][0])
		a.rmul[k] = mul[j] / div[j]
	}
	romStep4AVX2(&a)
}
