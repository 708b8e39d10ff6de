//go:build !amd64 || noasm

package circuit

// Pure-Go build: non-amd64 targets and the `noasm` tag compile the
// replay kernels without the AVX2 assembly. haveAVX2 is a constant
// false so the dispatch branches fold away and the stubs below are
// provably unreachable.

const haveAVX2 = false

func (tb *TransientBatch) stepFusedAVX2(nd Node, ref int, dst, src [][]float64, mul, div, add []float64, n int) {
	panic("circuit: AVX2 kernels unavailable in this build")
}

func (rb *ROMBatch) stepLanes4AVX2(l int, dst, src [][]float64, mul, div []float64, n int) {
	panic("circuit: AVX2 kernels unavailable in this build")
}

func (rb *ROMBatch) stepTailAVX2(l int, dst, src [][]float64, mul, div []float64, n int) {
	panic("circuit: AVX2 kernels unavailable in this build")
}
