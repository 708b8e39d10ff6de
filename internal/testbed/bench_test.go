package testbed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/tracestore"
)

// benchRunConfig is the voltage-at-failure probe workload: a reduced
// supply (so every run pays the regulator settle) and a short measured
// window — the shape of the runs that dominate AUDIT's search and
// failure-voltage procedures.
func benchRunConfig(b *testing.B, p Platform) RunConfig {
	b.Helper()
	period := resonancePeriodCycles(p)
	threads, err := SpreadPlacement(p.Chip, mulLoop("bench", period), 4)
	if err != nil {
		b.Fatal(err)
	}
	return RunConfig{
		Threads:      threads,
		MaxCycles:    3000,
		WarmupCycles: 1000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
}

// BenchmarkEvalColdVsCompiled quantifies the fast path on repeated
// runs of one platform. Cold rebuilds the chip, re-factors the PDN
// matrix and re-settles the regulator every run (the pre-fast-path
// behaviour); Compiled reuses all three through one CompiledPlatform.
// The acceptance bar for this PR is ≥1.5× and fewer allocs/op.
func BenchmarkEvalColdVsCompiled(b *testing.B) {
	p := Bulldozer()

	b.Run("Cold", func(b *testing.B) {
		rc := benchRunConfig(b, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Compiled", func(b *testing.B) {
		rc := benchRunConfig(b, p)
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		// Prime pools and the settle cache once; steady-state cost is
		// what the GA loop pays.
		if _, err := cp.Run(rc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// replayBenchConfig is a long periodic measurement: a 2M-cycle run of a
// jmp-closed loop whose energy trace proves periodic within a few
// thousand cycles, so the trace pipeline gets both of its early exits
// (chip-side period detection, PDN steady-state convergence).
func replayBenchConfig(b *testing.B, p Platform) RunConfig {
	b.Helper()
	threads, err := SpreadPlacement(p.Chip, jmpLoop("bench-replay", resonancePeriodCycles(p)), 4)
	if err != nil {
		b.Fatal(err)
	}
	return RunConfig{
		Threads:      threads,
		MaxCycles:    2_000_000,
		WarmupCycles: 2000,
		SupplyVolts:  p.Nominal() - 0.10,
	}
}

// BenchmarkMeasureExactVsReplay quantifies the trace pipeline on a long
// periodic run. Exact is the reference per-cycle loop; Replay pays
// phase 1 every iteration (ClearTraceCache) but still stops the chip at
// the verified period and early-exits the PDN; ReplayCached is the
// steady state for repeats, supply ladders and fault retries — phase 2
// only. The acceptance bar for this PR is Replay ≥5× over Exact.
func BenchmarkMeasureExactVsReplay(b *testing.B) {
	p := Bulldozer()

	run := func(b *testing.B, cp *CompiledPlatform, rc RunConfig, clear bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if clear {
				cp.ClearTraceCache()
			}
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("Exact", func(b *testing.B) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rc := replayBenchConfig(b, p)
		rc.ExactCycleLoop = true
		if _, err := cp.Run(rc); err != nil { // prime pools + settle cache
			b.Fatal(err)
		}
		run(b, cp, rc, false)
	})

	b.Run("Replay", func(b *testing.B) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rc := replayBenchConfig(b, p)
		if _, err := cp.Run(rc); err != nil {
			b.Fatal(err)
		}
		run(b, cp, rc, true)
	})

	b.Run("ReplayCached", func(b *testing.B) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rc := replayBenchConfig(b, p)
		if _, err := cp.Run(rc); err != nil {
			b.Fatal(err)
		}
		run(b, cp, rc, false)
	})
}

// generationSlate is one GA generation after memoization dedup: popSize
// distinct non-periodic programs with staggered loop and measurement
// lengths, all replay-eligible, so the batch pipeline's lane kernels
// get a full slate to pack.
func generationSlate(b *testing.B, p Platform, popSize int) []RunConfig {
	b.Helper()
	base := resonancePeriodCycles(p)
	rcs := make([]RunConfig, popSize)
	for i := range rcs {
		threads, err := SpreadPlacement(p.Chip, mulLoop(fmt.Sprintf("gen%d", i), base+2*i), 4)
		if err != nil {
			b.Fatal(err)
		}
		rcs[i] = RunConfig{
			Threads:      threads,
			MaxCycles:    8000 + uint64(i%8)*1000,
			WarmupCycles: 1000,
			SupplyVolts:  p.Nominal() - 0.08,
		}
	}
	return rcs
}

// BenchmarkGenerationBatch quantifies the generation-batched pipeline
// against the per-candidate path on a 32-genome generation. Both run
// with a warm trace cache — captures are phase 1, identical and shared
// between the paths, and in a real search replays dominate (repeats,
// supply ladders, fault retries, mutated survivors re-probing cached
// traces) — so what's measured is population replay throughput, the
// part multi-lane kernels accelerate. Each iteration shifts
// WarmupCycles so the finished-measurement memo misses and every slot
// pays a real replay. The acceptance bar for this PR is Batched/L8
// ≥1.5× PerCandidate at 8 workers.
func BenchmarkGenerationBatch(b *testing.B) {
	p := Bulldozer()
	const popSize = 32
	const workers = 8

	setup := func(b *testing.B) (*CompiledPlatform, []RunConfig) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rcs := generationSlate(b, p, popSize)
		_, errs := cp.MeasureBatch(rcs, DefaultBatchLanes, workers)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		return cp, rcs
	}
	// vary dodges the finished-measurement memo: WarmupCycles is part of
	// the memo key but not the trace key, so every iteration replays the
	// cached traces for real. The modulus recycles keys only after the
	// memo's FIFO has long evicted them.
	vary := func(rcs []RunConfig, iter int) {
		w := 1000 + 2*uint64(iter%500+1)
		for i := range rcs {
			rcs[i].WarmupCycles = w
		}
	}

	b.Run("PerCandidate/W8", func(b *testing.B) {
		cp, rcs := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vary(rcs, i)
			runParallel(workers, len(rcs), func(j int) {
				if _, err := cp.Run(rcs[j]); err != nil {
					b.Error(err)
				}
			})
		}
	})

	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Batched/L%dxW8", lanes), func(b *testing.B) {
			cp, rcs := setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vary(rcs, i)
				_, errs := cp.MeasureBatch(rcs, lanes, workers)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMedianOfKReplay is the GA's noise-rejection pattern
// (ga.Config.Repeats): each candidate measured K times on one
// RunConfig. With the trace cache, runs 2..K replay run 1's trace, so
// K=5 must cost well under 5 single measurements — the acceptance bar
// for this PR is <2× a single cold measurement.
func BenchmarkMedianOfKReplay(b *testing.B) {
	p := Bulldozer()

	run := func(b *testing.B, k int) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rc := replayBenchConfig(b, p)
		if _, err := cp.Run(rc); err != nil { // prime pools + settle cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp.ClearTraceCache() // each candidate is a fresh program
			for j := 0; j < k; j++ {
				if _, err := cp.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("Single", func(b *testing.B) { run(b, 1) })
	b.Run("K5", func(b *testing.B) { run(b, 5) })
}

// BenchmarkTraceStoreWarmVsCold prices the persistent store's warm
// start: ColdCapture rebuilds the chip trace every iteration (the
// first-process cost), WarmStore serves the same trace from a
// populated store directory (every later process's cost), and both
// clear the in-memory cache so the disk path is actually exercised.
// Phase 2 runs identically in both, so the gap isolates capture vs
// deserialize+checksum.
func BenchmarkTraceStoreWarmVsCold(b *testing.B) {
	p := Bulldozer()

	b.Run("ColdCapture", func(b *testing.B) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rc := benchRunConfig(b, p)
		if _, err := cp.Run(rc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp.ClearTraceCache()
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("WarmStore", func(b *testing.B) {
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		st, err := tracestore.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		cp.SetTraceStore(st)
		rc := benchRunConfig(b, p)
		if _, err := cp.Run(rc); err != nil { // capture once, write through
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp.ClearTraceCache()
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if ts := cp.TraceStats(); ts.StoreHits < uint64(b.N) {
			b.Fatalf("store hits %d < iterations %d: warm path not exercised", ts.StoreHits, b.N)
		}
	})
}

// searchShapeProgram builds a candidate the way core.CodeGen does for
// the benchmark search on Bulldozer at its 36-cycle resonance loop: a
// 6-cycle by 4-slot sub-block of random opcodes with a quarter of the
// slots left as NOPs, replicated 3 times into the high-power region,
// a 68-NOP low-power run and the dec/jnz closer. Register pools and
// memory displacements follow CodeGen.instr.
func searchShapeProgram() *asm.Program {
	var ops []*isa.Opcode
	for _, op := range isa.AllOpcodes() {
		switch op.Class {
		case isa.ClassBranch, isa.ClassBarrier, isa.ClassNOP:
			continue
		}
		ops = append(ops, op)
	}
	rng := rand.New(rand.NewSource(1))
	slots := make([]*isa.Instruction, 6*4)
	for i := range slots {
		if rng.Float64() < 0.25 {
			continue
		}
		op := ops[rng.Intn(len(ops))]
		a, bb, c := rng.Intn(256), rng.Intn(256), rng.Intn(256)
		xacc, xsrc := isa.XMM(a%12), isa.XMM(12+bb%4)
		gacc, gsrc := isa.GPR(8+a%8), isa.GPR(6+bb%2)
		in := &isa.Instruction{Op: op}
		switch op.Shape {
		case isa.ShapeRR:
			in.Dst, in.Src1 = xacc, xsrc
			if op.RegKind == isa.RegGPR {
				in.Dst, in.Src1 = gacc, gsrc
			}
		case isa.ShapeRRR:
			in.Dst, in.Src1, in.Src2 = xacc, xsrc, isa.XMM(12+c%4)
		case isa.ShapeRI:
			in.Dst, in.Imm = gacc, int64(bb)
		case isa.ShapeLoad, isa.ShapeStore:
			reg := xacc
			if op.RegKind == isa.RegGPR {
				reg = gacc
			}
			if op.Shape == isa.ShapeLoad {
				in.Dst = reg
			} else {
				in.Src1 = reg
			}
			in.MemBase = isa.RBP
		default:
			continue
		}
		slots[i] = in
	}
	b := asm.NewBuilder("search-shape")
	b.SetMem(4096)
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, 1<<40)
	b.RI("movimm", isa.RBP, 0)
	b.Label("loop")
	for rep, idx := 0, 0; rep < 3; rep++ {
		for _, in := range slots {
			if in == nil {
				b.Nop(1)
			} else {
				raw := *in
				if raw.MemBase.Valid() {
					raw.MemDisp = int32(idx * 64 % 4096)
				}
				b.Raw(raw)
			}
			idx++
		}
	}
	b.Nop(68)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	return b.MustBuild()
}

// BenchmarkCaptureSearchShape times phase-1 capture (buildTrace, period
// detector included) of one search candidate: four threads spread one
// per module, 23,000 cycles (the benchmark search's warmup plus
// measured window). The dec/jnz closer keeps the trace aperiodic, so
// every op captures the full window, as a search-cold capture does.
func BenchmarkCaptureSearchShape(b *testing.B) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	threads, err := SpreadPlacement(p.Chip, searchShapeProgram(), 4)
	if err != nil {
		b.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 23000, WarmupCycles: 3000, SupplyVolts: p.Nominal()}
	if _, err := cp.buildTrace(rc); err != nil { // fill the chip pool
		b.Fatal(err)
	}
	cycles := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := cp.buildTrace(rc)
		if err != nil {
			b.Fatal(err)
		}
		if tr.periodic || len(tr.energy) != 23000 {
			b.Fatalf("capture periodic=%v over %d cycles, want a full aperiodic window", tr.periodic, len(tr.energy))
		}
		cycles += len(tr.energy)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
