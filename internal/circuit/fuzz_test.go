package circuit

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzStepTraceBatch drives 1–33 lanes with drive samples and per-lane
// mul, div and add taken from raw fuzz bits, so subnormals, −0, ±Inf
// and NaN all reach the kernels, on a fuzz-picked netlist, driven
// source and recorded node. The kernel StepTraceBatch dispatches to,
// the Go multi-lane kernel and a serial StepTrace of each lane must
// agree in every output and end state bit for bit, except that a NaN
// matches any NaN. Since each lane is held to its own serial replay, a
// non-finite lane cannot move its pass-mates' bits.
func FuzzStepTraceBatch(f *testing.F) {
	nets := batchNets(f)
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(7), uint8(40), uint8(1), uint8(4), word(1e-12, 3.8e-10, 0.2, 12, 30, 5, 44))
	f.Add(uint8(3), uint8(8), uint8(17), uint8(0), uint8(0), word(1e-12, 1.1e-10, 0.25, 3, 0, math.Copysign(0, -1)))
	f.Add(uint8(1), uint8(12), uint8(9), uint8(2), uint8(3), word(1, 1, 0, math.NaN(), 4, math.Inf(1), 5e-324, -2))
	f.Add(uint8(2), uint8(32), uint8(63), uint8(1), uint8(7), word(1e-12, 0, 0.1, math.Inf(-1), 1e300, 7))
	f.Fuzz(func(t *testing.T, net, lanes, steps, refSel, nodeSel uint8, data []byte) {
		bn := nets[int(net)%len(nets)]
		cp := bn.cp
		L := 1 + int(lanes)%33
		n := 1 + int(steps)%64
		var refs []int
		for i, e := range cp.c.elements {
			if e.kind == kindV || e.kind == kindI {
				refs = append(refs, i)
			}
		}
		ref := refs[int(refSel)%len(refs)]
		nd := Node(int(nodeSel) % cp.c.nodes)
		words := make([]float64, len(data)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		w := func(i int) float64 {
			if len(words) == 0 {
				return 1
			}
			return words[i%len(words)]
		}
		mul, div, add := make([]float64, L), make([]float64, L), make([]float64, L)
		src := make([][]float64, L)
		for l := 0; l < L; l++ {
			mul[l], div[l], add[l] = w(3*l), w(3*l+1), w(3*l+2)
			src[l] = make([]float64, n)
			for s := range src[l] {
				src[l][s] = w(3*L + s*L + l)
			}
		}
		out := func() [][]float64 {
			d := make([][]float64, L)
			for l := range d {
				d[l] = make([]float64, n)
			}
			return d
		}
		disp, gob := cp.NewBatch(L), cp.NewBatch(L)
		dd, dg := out(), out()
		disp.StepTraceBatch(nd, ref, dd, src, mul, div, add, n)
		gob.stepGo(nd, ref, dg, src, mul, div, add, n)
		for l := 0; l < L; l++ {
			tr := cp.NewState()
			ds := make([]float64, n)
			tr.StepTrace(nd, ref, ds, src[l], mul[l], div[l], add[l])
			end := transientState(tr)
			for _, k := range []struct {
				name string
				v    []float64
				end  []float64
			}{{"dispatch", dd[l], laneState(disp, l)}, {"go batch", dg[l], laneState(gob, l)}} {
				if i, ok := sameOrNaN(k.v, ds); !ok {
					t.Fatalf("lanes=%d lane %d step %d: %s %v != serial %v", L, l, i, k.name, k.v[i], ds[i])
				}
				if i, ok := sameOrNaN(k.end, end); !ok {
					t.Fatalf("lanes=%d lane %d end state[%d]: %s %v != serial %v", L, l, i, k.name, k.end[i], end[i])
				}
			}
		}
	})
}

// sameOrNaN is sameBits with every NaN equal to every other NaN.
func sameOrNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}
