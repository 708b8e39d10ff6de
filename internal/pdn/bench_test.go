package pdn

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkStepTrace compares the per-cycle Step/VDie round trip
// against the batched StepTrace kernel on the same current trace. The
// kernel's flattened element records and single bounds-checked loop are
// where the trace-replay measurement pipeline gets its PDN-side
// throughput; the two must stay bit-identical (see
// TestCompiledMatchesNewBitwise and the testbed equivalence suite).
func BenchmarkStepTrace(b *testing.B) {
	const n = 65536
	cfg := Bulldozer()
	dt := 1 / 3.3e9
	src := make([]float64, n)
	for i := range src {
		// A droop-exciting square-ish load with a little harmonic content.
		src[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/36) + 5*math.Sin(2*math.Pi*float64(i)/7)
	}

	cp, err := Compile(cfg, dt)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("StepLoop", func(b *testing.B) {
		dst := make([]float64, n)
		b.ReportAllocs()
		b.SetBytes(n * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := cp.Get()
			for j, c := range src {
				p.Step(c)
				dst[j] = p.VDie()
			}
			cp.Put(p)
		}
	})

	b.Run("Batched", func(b *testing.B) {
		dst := make([]float64, n)
		b.ReportAllocs()
		b.SetBytes(n * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := cp.Get()
			p.StepTrace(dst, src, 1, 1, 0)
			cp.Put(p)
		}
	})
}

// BenchmarkStepTraceBatch measures the multi-lane kernels: L lanes
// advance together over the shared factorization, so ns/op ÷ L is the
// per-lane cost to compare against BenchmarkStepTrace/Batched (the
// one-lane exact kernel). Exact is the dense-LU oracle path; ROM is
// the reduced-order modal kernel it gates (same drives, die voltage
// within ROM.ErrPerAmpV — see TestROMBenchDrive). SetBytes counts all
// lanes' samples: MB/s is aggregate replay throughput.
func BenchmarkStepTraceBatch(b *testing.B) {
	const n = 65536
	cfg := Bulldozer()
	dt := 1 / 3.3e9
	cp, err := Compile(cfg, dt)
	if err != nil {
		b.Fatal(err)
	}
	lanesList := []int{1, 2, 4, 8, 16, 32}
	drive := func(lanes int) (src, dst [][]float64, mul, div, add []float64) {
		src = make([][]float64, lanes)
		dst = make([][]float64, lanes)
		mul = make([]float64, lanes)
		div = make([]float64, lanes)
		add = make([]float64, lanes)
		for l := 0; l < lanes; l++ {
			s := make([]float64, n)
			for i := range s {
				s[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/float64(36+l)) + 5*math.Sin(2*math.Pi*float64(i)/7)
			}
			src[l] = s
			dst[l] = make([]float64, n)
			mul[l], div[l], add[l] = 1, 1, 0
		}
		return
	}
	for _, lanes := range lanesList {
		b.Run(fmt.Sprintf("Exact/Lanes%d", lanes), func(b *testing.B) {
			src, dst, mul, div, add := drive(lanes)
			b.ReportAllocs()
			b.SetBytes(int64(lanes) * n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := cp.NewBatch(lanes)
				bt.StepTraceBatch(dst, src, mul, div, add, n)
			}
		})
	}
	for _, lanes := range lanesList {
		b.Run(fmt.Sprintf("ROM/Lanes%d", lanes), func(b *testing.B) {
			src, dst, mul, div, _ := drive(lanes)
			p := cp.New()
			b.ReportAllocs()
			b.SetBytes(int64(lanes) * n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb, err := cp.NewROMBatch(lanes)
				if err != nil {
					b.Fatal(err)
				}
				for l := 0; l < lanes; l++ {
					rb.LoadLane(l, p, 0)
				}
				rb.StepTraceBatch(dst, src, mul, div, n)
			}
		})
	}
}

// BenchmarkCompileROM measures what a platform compile pays to build
// its reduced-order model: the network compile, the eigendecomposition
// and the calibration drives through both kernels. A ROM search pays
// it once per process, inside its set-up.
func BenchmarkCompileROM(b *testing.B) {
	cfg := Bulldozer()
	dt := 1 / 3.3e9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp, err := Compile(cfg, dt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cp.ROM(); err != nil {
			b.Fatal(err)
		}
	}
}
