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

// pdnPreset mirrors pdn.Config.build for the shipped presets
// (internal/pdn/presets.go; this package cannot import pdn): VRM,
// board, package and die stages, every capacitor, the supply and the
// sink tied to ground on terminal b.
func pdnPreset(name string) (*Circuit, Node) {
	v := struct{ vnom, lmb, cmb, lpkg, cpkg, ldie, cdie, esrdie float64 }{
		1.25, 10e-9, 5e-3, 50e-12, 50e-6, 2.5e-12, 1.0e-6, 0.3e-3}
	switch name {
	case "phenom":
		v.vnom, v.cdie, v.ldie, v.esrdie = 1.30, 0.6e-6, 2.2e-12, 0.4e-3
	case "server-board":
		v.ldie, v.esrdie, v.cpkg = 5.2e-12, 0.35e-3, 80e-6
	}
	c := New()
	nVRM, nBoard, nPkg, nDie := c.NewNode(), c.NewNode(), c.NewNode(), c.NewNode()
	c.V("vrm", nVRM, Ground, v.vnom)
	nA, nA2 := c.NewNode(), c.NewNode()
	c.R("rvrm", nVRM, nA, 0.2e-3)
	c.R("rmb", nA, nA2, 0.5e-3)
	c.L("lmb", nA2, nBoard, v.lmb)
	c.R("rmbbyp", nA2, nBoard, 200*math.Sqrt(v.lmb/v.cmb))
	nB := c.NewNode()
	c.R("esrmb", nBoard, nB, 0.1e-3)
	c.C("cmb", nB, Ground, v.cmb)
	nC := c.NewNode()
	c.R("rpkg1", nBoard, nC, 0.1e-3)
	c.L("lpkg1", nC, nPkg, v.lpkg)
	nD := c.NewNode()
	c.R("esrpkg", nPkg, nD, 0.2e-3)
	c.C("cpkg", nD, Ground, v.cpkg)
	nE := c.NewNode()
	c.R("rdie", nPkg, nE, 0.1e-3)
	c.L("ldie", nE, nDie, v.ldie)
	nF := c.NewNode()
	c.R("esrdie", nDie, nF, v.esrdie)
	c.C("cdie", nF, Ground, v.cdie)
	c.I("sink", nDie, Ground, 0)
	return c, nDie
}

// groundedNet ties every source and companion element kind to ground,
// on terminal a and on terminal b, so the fused kernel's zero row (an
// inductor or capacitor voltage read from ground) and dump row (a
// stamp into ground) both carry traffic.
func groundedNet() (*Circuit, Node) {
	c := New()
	n1, n2, n3, n4, n5, n6 := c.NewNode(), c.NewNode(), c.NewNode(), c.NewNode(), c.NewNode(), c.NewNode()
	c.V("vin", Ground, n1, -1.2)
	c.R("r1", n1, n2, 0.02)
	c.L("l1", n2, n3, 3e-9)
	c.C("c1", Ground, n3, 2e-6)
	c.R("r2", n3, n4, 0.05)
	c.L("l2", Ground, n4, 8e-9)
	c.C("c2", n4, Ground, 1e-6)
	c.R("r3", n4, n5, 0.1)
	c.L("l3", n5, Ground, 20e-9)
	c.V("vaux", n6, Ground, 0.3)
	c.R("r4", n6, n3, 1)
	c.I("leak", Ground, n5, 0.5)
	c.I("sink", n3, Ground, 0)
	return c, n3
}

// batchNet is one compiled netlist the batch suites run on.
type batchNet struct {
	name string
	cp   *Compiled
	out  Node
	ref  int // the "sink" source
}

// batchNets compiles the three PDN presets and groundedNet at the
// testbed's 3.3 GHz step.
func batchNets(t testing.TB) []batchNet {
	t.Helper()
	var nets []batchNet
	for _, name := range []string{"bulldozer", "phenom", "server-board", "grounded"} {
		c, out := pdnPreset(name)
		if name == "grounded" {
			c, out = groundedNet()
		}
		cp, err := Compile(c, 1/3.3e9)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cp.NewState().SourceRef("sink")
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, batchNet{name, cp, out, ref})
	}
	return nets
}

// batchWidths are the lane counts the batch suites run: every width
// up to two 8-lane groups and past them, and the widths either side of
// each group boundary.
var batchWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 31, 32}

// laneParams returns distinct per-lane drive parameters: mul, div
// (a per-lane supply) and add (a per-lane leakage).
func laneParams(lanes int) (mul, div, add []float64) {
	mul, div, add = make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for l := range mul {
		mul[l] = 1e-12
		div[l] = 1e-10 * (1.1 + 0.01*float64(l))
		add[l] = 0.25 + 0.03*float64(l)
	}
	return mul, div, add
}

// startStates returns one state per lane, lane l stepped l times from
// the DC point under a constant drive, so no two lanes start equal.
func startStates(bn batchNet, lanes int) []*Transient {
	states := make([]*Transient, lanes)
	for l := range states {
		states[l] = bn.cp.NewState()
		pre := make([]float64, l)
		src := make([]float64, l)
		for i := range src {
			src[i] = 4
		}
		states[l].StepTrace(bn.out, bn.ref, pre, src, 1, 1, 0)
	}
	return states
}

// serialLaneRun replays one lane through the single-lane kernel from a
// copy of start, returning the voltage trace and end state.
func serialLaneRun(start *Transient, out Node, ref int, src []float64, mul, div, add float64) ([]float64, []float64) {
	tr := start.Clone()
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

// sameBits reports whether a and b hold the same bits element by
// element, and the first index where they do not.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// TestStepTraceBatchBitIdenticalToSerial: at every width, on every
// netlist, each lane's trace and end state equal a serial StepTrace of
// that lane from the same start, bit for bit.
func TestStepTraceBatchBitIdenticalToSerial(t *testing.T) {
	const steps = 400
	for _, bn := range batchNets(t) {
		for _, lanes := range batchWidths {
			src := batchDrive(lanes, steps)
			mul, div, add := laneParams(lanes)
			dst := make([][]float64, lanes)
			tb := bn.cp.NewBatch(lanes)
			states := startStates(bn, lanes)
			for l := 0; l < lanes; l++ {
				dst[l] = make([]float64, steps)
				tb.LoadLane(l, states[l])
			}
			tb.StepTraceBatch(bn.out, bn.ref, dst, src, mul, div, add, steps)
			for l := 0; l < lanes; l++ {
				wantV, wantEnd := serialLaneRun(states[l], bn.out, bn.ref, src[l], mul[l], div[l], add[l])
				if i, ok := sameBits(dst[l], wantV); !ok {
					t.Fatalf("%s lanes=%d lane %d step %d: batch %v != serial %v", bn.name, lanes, l, i, dst[l][i], wantV[i])
				}
				if i, ok := sameBits(laneState(tb, l), wantEnd); !ok {
					t.Fatalf("%s lanes=%d lane %d end state[%d]: batch != serial", bn.name, lanes, l, i)
				}
			}
		}
	}
}

// TestStepTraceBatchDropLaneMidStream: at every width, on every
// netlist, a pass that retires a lane mid-stream (the last lane moves
// into its slot) finishes every surviving lane bit-identical to its
// serial replay, trace and end state.
func TestStepTraceBatchDropLaneMidStream(t *testing.T) {
	const steps = 300
	const half = steps / 2
	for _, bn := range batchNets(t) {
		for _, lanes := range batchWidths {
			src := batchDrive(lanes, steps)
			mul, div, add := laneParams(lanes)
			dst := make([][]float64, lanes)
			tb := bn.cp.NewBatch(lanes)
			states := startStates(bn, lanes)
			for l := 0; l < lanes; l++ {
				dst[l] = make([]float64, steps)
				tb.LoadLane(l, states[l])
			}
			tb.StepTraceBatch(bn.out, bn.ref, dst, src, mul, div, add, half)
			// live[k] is the lane in batch slot k.
			live := make([]int, lanes)
			for l := range live {
				live[l] = l
			}
			if lanes > 1 {
				drop := lanes / 2
				tb.DropLane(drop)
				live[drop] = live[lanes-1]
				live = live[:lanes-1]
			}
			w := len(live)
			if tb.Lanes() != w {
				t.Fatalf("%s: Lanes() = %d after dropping to %d", bn.name, tb.Lanes(), w)
			}
			rd, rs := make([][]float64, w), make([][]float64, w)
			rm, rv, ra := make([]float64, w), make([]float64, w), make([]float64, w)
			for k, l := range live {
				rd[k], rs[k] = dst[l][half:], src[l][half:]
				rm[k], rv[k], ra[k] = mul[l], div[l], add[l]
			}
			tb.StepTraceBatch(bn.out, bn.ref, rd, rs, rm, rv, ra, steps-half)
			for k, l := range live {
				wantV, wantEnd := serialLaneRun(states[l], bn.out, bn.ref, src[l], mul[l], div[l], add[l])
				if i, ok := sameBits(dst[l], wantV); !ok {
					t.Fatalf("%s lanes=%d lane %d step %d after DropLane: %v != %v", bn.name, lanes, l, i, dst[l][i], wantV[i])
				}
				if i, ok := sameBits(laneState(tb, k), wantEnd); !ok {
					t.Fatalf("%s lanes=%d lane %d end state[%d] after DropLane differs", bn.name, lanes, l, i)
				}
			}
		}
	}
}

// TestStepTraceBatchDispatchBitIdentical holds the kernel StepTraceBatch
// dispatches to — the fused AVX2 kernel on amd64, the Go lane loops
// under noasm — to the Go multi-lane kernel at every width class, in
// two chunks with a lane retired between them, recording the netlist's
// output node and then ground. Outputs and end states must match bit
// for bit, and no kernel may write past n in any dst.
func TestStepTraceBatchDispatchBitIdentical(t *testing.T) {
	t.Logf("haveAVX2 = %v", haveAVX2)
	const steps, n1 = 300, 137
	const sentinel = 0x7ff8dead0000beef
	for _, bn := range batchNets(t) {
		for _, nd := range []Node{bn.out, Ground} {
			for lanes := 1; lanes <= 33; lanes++ {
				src := batchDrive(lanes, steps)
				mul, div, add := laneParams(lanes)
				got, want := make([][]float64, lanes), make([][]float64, lanes)
				tb, ref := bn.cp.NewBatch(lanes), bn.cp.NewBatch(lanes)
				for l, st := range startStates(bn, lanes) {
					got[l], want[l] = guarded(steps), make([]float64, steps)
					for i := n1; i < steps; i++ {
						got[l][i] = math.Float64frombits(sentinel)
					}
					tb.LoadLane(l, st)
					ref.LoadLane(l, st)
				}
				tb.StepTraceBatch(nd, bn.ref, got, src, mul, div, add, n1)
				ref.stepGo(nd, bn.ref, want, src, mul, div, add, n1)
				for l := range got {
					for i := n1; i < steps; i++ {
						if math.Float64bits(got[l][i]) != sentinel {
							t.Fatalf("%s lanes=%d lane %d: a %d-step chunk wrote step %d", bn.name, lanes, l, n1, i)
						}
					}
				}
				live := make([]int, lanes)
				for l := range live {
					live[l] = l
				}
				if lanes > 1 {
					tb.DropLane(0)
					ref.DropLane(0)
					live[0] = live[lanes-1]
					live = live[:lanes-1]
				}
				w := len(live)
				gd, wd, sd := make([][]float64, w), make([][]float64, w), make([][]float64, w)
				mw, dw, aw := make([]float64, w), make([]float64, w), make([]float64, w)
				for k, l := range live {
					gd[k], wd[k], sd[k] = got[l][n1:], want[l][n1:], src[l][n1:]
					mw[k], dw[k], aw[k] = mul[l], div[l], add[l]
				}
				tb.StepTraceBatch(nd, bn.ref, gd, sd, mw, dw, aw, steps-n1)
				if w == 1 {
					// A one-lane batch runs the serial kernel; so does
					// the reference.
					ref.StepTraceBatch(nd, bn.ref, wd, sd, mw, dw, aw, steps-n1)
				} else {
					ref.stepGo(nd, bn.ref, wd, sd, mw, dw, aw, steps-n1)
				}
				for k, l := range live {
					checkGuard(t, got[l], bn.name+" dispatch", lanes)
					if i, ok := sameBits(got[l], want[l]); !ok {
						t.Fatalf("%s node %d lanes=%d lane %d step %d: dispatch %v != Go %v", bn.name, nd, lanes, l, i, got[l][i], want[l][i])
					}
					if i, ok := sameBits(laneState(tb, k), laneState(ref, k)); !ok {
						t.Fatalf("%s node %d lanes=%d lane %d end state[%d]: dispatch != Go", bn.name, nd, lanes, l, i)
					}
				}
			}
		}
	}
}

// TestStepTraceBatchRefusesBadRefs: a ref that names no V or I source,
// or a node outside the circuit, panics at every width instead of
// driving or recording some other row.
func TestStepTraceBatchRefusesBadRefs(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := cp.NewState().SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 2, 9} {
		src := batchDrive(lanes, 4)
		mul, div, add := laneParams(lanes)
		dst := make([][]float64, lanes)
		for l := range dst {
			dst[l] = make([]float64, 4)
		}
		for _, tc := range []struct {
			name string
			nd   Node
			ref  int
		}{{"resistor ref", out, 1}, {"inductor ref", out, 2}, {"node past the circuit", Node(c.NumNodes()), sink}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("lanes=%d %s: no panic", lanes, tc.name)
					}
				}()
				cp.NewBatch(lanes).StepTraceBatch(tc.nd, tc.ref, dst, src, mul, div, add, 4)
			}()
		}
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
