package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// batchDrive builds per-lane source traces with distinct shapes so
// lane mix-ups show up as bitwise mismatches.
func batchDrive(lanes, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	src := make([][]float64, lanes)
	for l := range src {
		s := make([]float64, steps)
		phase := rng.Float64() * 2 * math.Pi
		amp := 1 + rng.Float64()*4
		for i := range s {
			s[i] = amp * (1 + math.Sin(phase+float64(i)/float64(3+l)))
		}
		src[l] = s
	}
	return src
}

// serialLaneRun replays one lane through the single-lane kernel from
// the DC operating point, returning the voltage trace and end state.
func serialLaneRun(cp *Compiled, out Node, ref int, src []float64, mul, div, add float64) ([]float64, []float64) {
	tr := cp.NewState()
	dst := make([]float64, len(src))
	tr.StepTrace(out, ref, dst, src, mul, div, add)
	return dst, transientState(tr)
}

// transientState flattens t's whole state: the solution vector, source
// values, companion histories and simulation time.
func transientState(t *Transient) []float64 {
	var s []float64
	for _, a := range [][]float64{t.x, t.sources, t.capV, t.capI, t.indI} {
		s = append(s, a...)
	}
	return append(s, t.time)
}

// laneState flattens lane l of tb in transientState's layout.
func laneState(tb *TransientBatch, l int) []float64 {
	var s []float64
	for _, a := range [][]float64{tb.x, tb.sources, tb.capV, tb.capI, tb.indI} {
		col := make([]float64, len(a)/tb.lanes)
		gather(col, a, tb.lanes, l)
		s = append(s, col...)
	}
	return append(s, tb.time[l])
}

func TestStepTraceBatchBitIdenticalToSerial(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	probe := cp.NewState()
	ref, err := probe.SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 400
	for _, lanes := range []int{1, 2, 3, 8} {
		src := batchDrive(lanes, steps)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		add := make([]float64, lanes)
		dst := make([][]float64, lanes)
		tb := cp.NewBatch(lanes)
		states := make([]*Transient, lanes)
		for l := 0; l < lanes; l++ {
			mul[l] = 1e-12
			div[l] = 1e-10 * (1.1 + 0.01*float64(l)) // distinct per-lane supply
			add[l] = 0.25 + 0.03*float64(l)
			dst[l] = make([]float64, steps)
			states[l] = cp.NewState()
			tb.LoadLane(l, states[l])
		}
		tb.StepTraceBatch(out, ref, dst, src, mul, div, add, steps)
		for l := 0; l < lanes; l++ {
			wantV, wantEnd := serialLaneRun(cp, out, ref, src[l], mul[l], div[l], add[l])
			for i := range wantV {
				if dst[l][i] != wantV[i] {
					t.Fatalf("lanes=%d lane %d step %d: batch %v != serial %v", lanes, l, i, dst[l][i], wantV[i])
				}
			}
			got := laneState(tb, l)
			for i := range wantEnd {
				if math.Float64bits(got[i]) != math.Float64bits(wantEnd[i]) {
					t.Fatalf("lanes=%d lane %d end state[%d]: batch %v != serial %v", lanes, l, i, got[i], wantEnd[i])
				}
			}
		}
	}
}

func TestStepTraceBatchDropLaneMidStream(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	probe := cp.NewState()
	ref, err := probe.SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 4
	const steps = 300
	src := batchDrive(lanes, steps)
	mul := []float64{1, 1, 1, 1}
	div := []float64{1, 1, 1, 1}
	add := []float64{0, 0, 0, 0}
	dst := make([][]float64, lanes)
	tb := cp.NewBatch(lanes)
	for l := 0; l < lanes; l++ {
		dst[l] = make([]float64, steps)
		tb.LoadLane(l, cp.NewState())
	}
	// First half with all lanes, then retire lane 1 (lane 3 swaps into
	// its slot) and finish the survivors.
	half := steps / 2
	tb.StepTraceBatch(out, ref, dst, src, mul, div, add, half)
	tb.DropLane(1)
	dst[1], src[1] = dst[3], src[3]
	rest := make([][]float64, 3)
	restSrc := make([][]float64, 3)
	for l := 0; l < 3; l++ {
		rest[l] = dst[l][half:]
		restSrc[l] = src[l][half:]
	}
	tb.StepTraceBatch(out, ref, rest, restSrc, mul, div, add, steps-half)
	for _, l := range []int{0, 2, 3} {
		wantV, _ := serialLaneRun(cp, out, ref, src[l], mul[0], div[0], add[0])
		got := dst[l] // dst[1] aliases dst[3]: lane 3 finished in slot 1
		for i := range wantV {
			if got[i] != wantV[i] {
				t.Fatalf("lane %d step %d after DropLane: %v != %v", l, i, got[i], wantV[i])
			}
		}
	}
	if tb.Lanes() != 3 {
		t.Fatalf("Lanes() = %d after one drop from 4", tb.Lanes())
	}
}

// BenchmarkSolveBatch pits L serial triangular solves against one
// L-lane batched solve on a PDN-sized system.
func BenchmarkSolveBatch(b *testing.B) {
	c, _ := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		b.Fatal(err)
	}
	lu := cp.lu
	n := lu.n
	for _, L := range []int{1, 2, 4, 8} {
		rhs := make([]float64, n*L)
		x := make([]float64, n*L)
		for i := range rhs {
			rhs[i] = float64(i%13) * 0.37
		}
		b.Run(benchName("Lanes", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lu.solveBatch(rhs, x, L)
			}
		})
	}
	single := make([]float64, n)
	xs := make([]float64, n)
	for i := range single {
		single[i] = float64(i%13) * 0.37
	}
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solve(single, xs)
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + string(rune('0'+v))
}
