//go:build amd64 && !noasm

package circuit

import "unsafe"

// AVX2 assembly fast paths for the two replay kernels: the fused exact
// step (TransientBatch.StepTraceBatch, 8-lane groups, fused.go) and the
// ROM modal step (romStepKernel) in 4-lane groups. Both map lanes to
// SIMD slots so each lane performs exactly the Go kernel's
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
func fusedStepAVX2(a *fusedArgs)

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

// fusedArgs is the argument block for fusedStepAVX2: the compiled
// step's records (fusedPlan), the group scratch, and each slot's drive
// and output streams. Every field is 8 bytes, so the assembly's fixed
// offsets follow the declaration order; the guards below pin them.
type fusedArgs struct {
	g      unsafe.Pointer // group scratch, [rows × 8] float64
	stamps unsafe.Pointer // *fusedStamp
	nStamp int64
	lu     unsafe.Pointer // *fusedRow: nRows forward rows, then nRows back rows
	nRows  int64
	ents   unsafe.Pointer // *fusedEnt, in the order the rows walk them
	caps   unsafe.Pointer // *fusedCap
	nCaps  int64
	inds   unsafe.Pointer // *fusedInd
	nInds  int64
	bOff   int64 // first b row, byte offset
	bEnd   int64 // one past the dump row
	ref    int64 // the driven source's row
	drive  int64 // mul row; div and add rows follow
	time   int64 // time row
	die    int64 // the recorded node's x row, or the zero row
	h      float64
	n      int64 // steps
	src    [GroupLanes]unsafe.Pointer
	dst    [GroupLanes]unsafe.Pointer
}

// Compile-time layout guards for the records and the argument block,
// and for the element kinds the stamp loop compares against.
var (
	_ = [1]struct{}{}[kindC-1]
	_ = [1]struct{}{}[kindL-2]
	_ = [1]struct{}{}[kindV-3]
	_ = [1]struct{}{}[kindI-4]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedArgs{})-272]
	_ = [1]struct{}{}[unsafe.Offsetof(fusedArgs{}.bOff)-80]
	_ = [1]struct{}{}[unsafe.Offsetof(fusedArgs{}.h)-128]
	_ = [1]struct{}{}[unsafe.Offsetof(fusedArgs{}.src)-144]
	_ = [1]struct{}{}[unsafe.Offsetof(fusedArgs{}.dst)-208]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedStamp{})-48]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedRow{})-32]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedEnt{})-16]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedCap{})-40]
	_ = [1]struct{}{}[unsafe.Sizeof(fusedInd{})-16]
)

// stepFusedAVX2 advances every lane n steps, one kernel call per
// 8-lane group. A group's state is gathered into the batch's group
// scratch, stepped, and its real lanes scattered back. The last group
// pads with bitwise copies of its last real lane — state, drive
// parameters and src/dst streams — so a padding slot stores exactly
// the bits that lane stores, to the same addresses.
func (tb *TransientBatch) stepFusedAVX2(nd Node, ref int, dst, src [][]float64, mul, div, add []float64, n int) {
	fp := tb.cp.fused
	L := tb.lanes
	a := fusedArgs{
		g:      unsafe.Pointer(&tb.group[0]),
		stamps: first(fp.stamps),
		nStamp: int64(len(fp.stamps)),
		lu:     first(fp.lu),
		nRows:  int64(tb.cp.n),
		ents:   first(fp.ents),
		caps:   first(fp.caps),
		nCaps:  int64(len(fp.caps)),
		inds:   first(fp.inds),
		nInds:  int64(len(fp.inds)),
		bOff:   fp.bOff,
		bEnd:   fp.bEnd,
		ref:    fp.srcRow[ref],
		drive:  fp.drive,
		time:   fp.time,
		die:    int64(tb.cp.n) * rowBytes,
		h:      tb.cp.h,
		n:      int64(n),
	}
	if nd != Ground {
		a.die = int64(nd-1) * rowBytes
	}
	arrs := tb.groupArrays(mul, div, add)
	for l0 := 0; l0 < L; l0 += GroupLanes {
		var js [GroupLanes]int
		for k := range js {
			js[k] = min(l0+k, L-1)
			a.src[k] = unsafe.Pointer(&src[js[k]][0])
			a.dst[k] = unsafe.Pointer(&dst[js[k]][0])
		}
		tb.loadGroup(&arrs, &js)
		fusedStepAVX2(&a)
		tb.storeGroup(&arrs, l0, min(GroupLanes, L-l0))
	}
}

// first returns a pointer to s[0], or nil for an empty s.
func first[T any](s []T) unsafe.Pointer {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Pointer(&s[0])
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
