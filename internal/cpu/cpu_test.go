package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

// satFMABody emits n FMAs with distinct destination accumulators
// (xmm0..xmm11) and read-only sources (xmm12..xmm15), so throughput is
// bound by the FP pipes rather than dependency chains.
func satFMABody(b *asm.Builder, n int) {
	for i := 0; i < n; i++ {
		b.RRR("vfmadd132pd", isa.XMM(i%12), isa.XMM(12+(i%2)), isa.XMM(14+(i%2)))
	}
}

// loopProgram builds: movimm rcx,N ; loop: <body> ; dec rcx ; jnz loop.
func loopProgram(t *testing.T, name string, iters int64, body func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(name)
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, iters)
	b.Label("loop")
	body(b)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSingle runs one thread on module 0 core 0 until done, returning
// cycles and total energy.
func runSingle(t *testing.T, cfg uarch.ChipConfig, p *asm.Program) (uint64, float64) {
	t.Helper()
	ch, err := NewChip(cfg, power.BulldozerModel())
	if err != nil {
		t.Fatal(err)
	}
	th, err := NewThread(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	var energy float64
	for i := 0; i < 10_000_000 && !ch.Done(); i++ {
		r := ch.Step()
		energy += r.EnergyPJ
	}
	if !ch.Done() {
		t.Fatal("chip did not finish")
	}
	return ch.Cycle(), energy
}

func TestThreadFunctionalLoop(t *testing.T) {
	p := asm.NewBuilder("count").
		RI("movimm", isa.RAX, 0).
		RI("movimm", isa.RDX, 3).
		RI("movimm", isa.RCX, 10).
		Label("loop").
		RR("add", isa.RAX, isa.RDX).
		RR("dec", isa.RCX, isa.RCX).
		Branch("jnz", "loop").
		MustBuild()
	th, err := NewThread(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok := th.Peek()
		if !ok {
			break
		}
		th.Consume()
		n++
	}
	if n != 3+3*10 {
		t.Errorf("dynamic instructions = %d, want 33", n)
	}
	v, err := th.Reg(isa.RAX)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lo != 30 {
		t.Errorf("rax = %d, want 30", v.Lo)
	}
	if c, _ := th.Reg(isa.RCX); c.Lo != 0 {
		t.Errorf("rcx = %d, want 0", c.Lo)
	}
}

func TestThreadMemoryRoundTrip(t *testing.T) {
	p := asm.NewBuilder("mem").
		RI("movimm", isa.RBP, 0).
		RI("movimm", isa.RAX, 0xDEADBEEF).
		Store("store", isa.RBP, 64, isa.RAX).
		Load("load", isa.RDX, isa.RBP, 64).
		MustBuild()
	th, err := NewThread(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := th.Peek(); !ok {
			break
		}
		th.Consume()
	}
	v, _ := th.Reg(isa.RDX)
	if v.Lo != 0xDEADBEEF {
		t.Errorf("loaded %#x", v.Lo)
	}
}

func TestThreadMaxInstrs(t *testing.T) {
	p := loopProgram(t, "inf", 1<<40, func(b *asm.Builder) { b.Nop(1) })
	th, err := NewThread(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := th.Peek(); !ok {
			break
		}
		th.Consume()
		n++
	}
	if n != 100 {
		t.Errorf("bounded thread ran %d instrs", n)
	}
}

func TestCacheBasics(t *testing.T) {
	c, err := NewCache(1024, 2, 64) // 8 sets × 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("warm access missed")
	}
	// Fill both ways of set 0, then evict LRU.
	c.Access(0)       // way A most recent
	c.Access(8 * 64)  // same set, way B (sets=8 → stride 512)
	c.Access(16 * 64) // evicts line 0? LRU is line 0? order: 0 (recent), 512, then 1024 evicts 0
	if c.Access(8*64) == false {
		t.Error("recently used line evicted")
	}
	if c.Access(0) {
		t.Error("LRU line survived eviction")
	}
	h, m := c.Stats()
	if h == 0 || m == 0 {
		t.Errorf("stats: %d hits %d misses", h, m)
	}
	c.Reset()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("reset did not clear stats")
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewCache(1024, 2, 48); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := NewCache(64, 4, 64); err == nil {
		t.Error("cache smaller than associativity accepted")
	}
	if _, err := NewCache(0, 1, 64); err == nil {
		t.Error("zero size accepted")
	}
}

func TestNOPLoopDecodesFullWidth(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(2000)
	// 10 NOPs + dec + jnz = 12 instructions per iteration.
	p := loopProgram(t, "nops", iters, func(b *asm.Builder) { b.Nop(10) })
	cycles, _ := runSingle(t, cfg, p)
	ipc := float64(12*iters) / float64(cycles)
	// Decode width 4 is the only limit for NOPs.
	if ipc < 3.0 {
		t.Errorf("NOP loop IPC = %.2f, want near 4", ipc)
	}
}

func TestDependentChainIPCOne(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(500)
	p := loopProgram(t, "chain", iters, func(b *asm.Builder) {
		// 8 dependent adds: each reads the previous result.
		for i := 0; i < 8; i++ {
			b.RR("add", isa.RAX, isa.RAX)
		}
	})
	cycles, _ := runSingle(t, cfg, p)
	ipc := float64(10*iters) / float64(cycles)
	if ipc > 1.5 {
		t.Errorf("dependent chain IPC = %.2f, want ≈ 1", ipc)
	}
}

func TestIndependentAddsLimitedByALUs(t *testing.T) {
	cfg := uarch.Bulldozer() // 1 general ALU pipe
	iters := int64(2000)
	p := loopProgram(t, "adds", iters, func(b *asm.Builder) {
		// 8 independent adds across distinct registers.
		for i := 0; i < 8; i++ {
			b.RR("add", isa.GPR(6+(i%8)), isa.GPR(6+((i+1)%8)))
		}
	})
	cycles, _ := runSingle(t, cfg, p)
	totalOps := float64(10 * iters)
	ipc := totalOps / float64(cycles)
	// ALU ops dominate: 9 ALU ops per iteration through one ALU pipe
	// floors the loop near 9 cycles (+branch overlap) → IPC ≈ 1.1.
	if ipc > 1.5 {
		t.Errorf("independent ALU IPC = %.2f, should be capped near 1.1 by the ALU", ipc)
	}
	if ipc < 0.8 {
		t.Errorf("independent ALU IPC = %.2f, suspiciously low", ipc)
	}
}

// This is the mechanism behind the paper's NOP ablation (§5.A.5):
// replacing NOPs with ADDs lengthens the loop because ADDs contend for
// ALUs and result buses while NOPs cost only decode slots.
func TestNopsCheaperThanAddsInLoopDuration(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(1500)
	// No FP ops here: the loop-carried FMA latency would floor both
	// variants. The pure front-end-vs-ALU contrast is the mechanism.
	mixed := loopProgram(t, "nops", iters, func(b *asm.Builder) {
		b.Nop(8)
	})
	dense := loopProgram(t, "adds", iters, func(b *asm.Builder) {
		for i := 0; i < 8; i++ {
			b.RR("add", isa.GPR(6+(i%8)), isa.GPR(6+((i+3)%8)))
		}
	})
	cNop, _ := runSingle(t, cfg, mixed)
	cAdd, _ := runSingle(t, cfg, dense)
	if cAdd <= cNop {
		t.Errorf("ADD-dense loop (%d cycles) should be longer than NOP loop (%d cycles)", cAdd, cNop)
	}
}

func TestFPPipesLimitFMAThroughput(t *testing.T) {
	cfg := uarch.Bulldozer() // 2 FP pipes per module
	iters := int64(1500)
	p := loopProgram(t, "fmas", iters, func(b *asm.Builder) { satFMABody(b, 12) })
	cycles, _ := runSingle(t, cfg, p)
	fpops := float64(12 * iters)
	fpPerCycle := fpops / float64(cycles)
	if fpPerCycle > 2.05 {
		t.Errorf("FP throughput %.2f/cycle exceeds 2 pipes", fpPerCycle)
	}
	if fpPerCycle < 1.5 {
		t.Errorf("FP throughput %.2f/cycle too low for independent FMAs", fpPerCycle)
	}
}

func TestSharedFPUInterference(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(1200)
	mk := func() *asm.Program {
		return loopProgram(t, "fp", iters, func(b *asm.Builder) { satFMABody(b, 12) })
	}
	run := func(twoThreads bool) uint64 {
		ch, err := NewChip(cfg, power.BulldozerModel())
		if err != nil {
			t.Fatal(err)
		}
		th0, _ := NewThread(mk(), 0)
		if err := ch.Attach(0, 0, th0); err != nil {
			t.Fatal(err)
		}
		if twoThreads {
			th1, _ := NewThread(mk(), 0)
			if err := ch.Attach(0, 1, th1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10_000_000 && !ch.Done(); i++ {
			ch.Step()
		}
		return ch.Cycle()
	}
	solo := run(false)
	shared := run(true)
	// Two FP-heavy siblings share 2 pipes: each should take much longer
	// than running alone — at least 1.5× (ideal contention would be 2×).
	if float64(shared) < 1.5*float64(solo) {
		t.Errorf("sibling FP interference too weak: solo %d cycles, shared %d", solo, shared)
	}
}

func TestFPThrottleLimitsThroughput(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(1200)
	p := loopProgram(t, "fp", iters, func(b *asm.Builder) { satFMABody(b, 12) })
	base, _ := runSingle(t, cfg, p)
	cfgTh := cfg
	cfgTh.FPThrottleLimit = 1
	throttled, _ := runSingle(t, cfgTh, p)
	if float64(throttled) < 1.6*float64(base) {
		t.Errorf("FP throttle should roughly halve throughput: %d vs %d cycles", base, throttled)
	}
}

func TestEnergySwingBetweenNOPAndFMALoops(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(800)
	nops := loopProgram(t, "lp", iters, func(b *asm.Builder) { b.Nop(8) })
	fmas := loopProgram(t, "hp", iters, func(b *asm.Builder) {
		satFMABody(b, 8)
		b.RR("add", isa.RSI, isa.RDI)
		b.RR("xor", isa.GPR(8), isa.GPR(9))
	})
	cN, eN := runSingle(t, cfg, nops)
	cF, eF := runSingle(t, cfg, fmas)
	pN := eN / float64(cN) // pJ/cycle
	pF := eF / float64(cF)
	// The chip-wide baseline includes three idle modules, so require a
	// healthy ratio plus an absolute per-module swing.
	if pF < 1.3*pN || pF-pN < 500 {
		t.Errorf("high-power loop %.0f pJ/cyc vs low-power %.0f pJ/cyc: swing too small for di/dt stress", pF, pN)
	}
}

func TestLoadMissesSlowLargeFootprint(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(400)
	small := asm.NewBuilder("small").SetMem(4 << 10)
	big := asm.NewBuilder("big").SetMem(16 << 20) // larger than L2
	for _, b := range []*asm.Builder{small, big} {
		b.RI("movimm", isa.RBP, 0)
		b.RI("movimm", isa.RCX, int64(iters))
		b.Label("loop")
		for i := 0; i < 4; i++ {
			b.Load("load", isa.GPR(8+i), isa.RBP, int32(i)*64)
			b.RR("add", isa.RSI, isa.GPR(8+i))
		}
		// Stride a few KB per iteration so the big footprint misses.
		b.Load("lea", isa.RBP, isa.RBP, 4096)
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
	}
	cs, _ := runSingle(t, cfg, small.MustBuild())
	cb, _ := runSingle(t, cfg, big.MustBuild())
	if float64(cb) < 1.5*float64(cs) {
		t.Errorf("large-footprint loads should be much slower: %d vs %d cycles", cb, cs)
	}
}

func TestMispredictPenalty(t *testing.T) {
	cfg := uarch.Bulldozer()
	iters := int64(800)
	// A forward branch that is always taken: static predictor says
	// not-taken → mispredict every iteration.
	b := asm.NewBuilder("mispredict")
	b.RI("movimm", isa.RCX, iters)
	b.RI("movimm", isa.RAX, 1)
	b.Label("loop")
	b.RR("or", isa.RAX, isa.RAX) // sets flags, rax != 0
	b.Branch("jnz", "skip")      // forward, always taken → mispredicted
	b.Nop(1)
	b.Label("skip")
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	pm := b.MustBuild()

	// Same loop without the forward branch.
	b2 := asm.NewBuilder("clean")
	b2.RI("movimm", isa.RCX, iters)
	b2.RI("movimm", isa.RAX, 1)
	b2.Label("loop")
	b2.RR("or", isa.RAX, isa.RAX)
	b2.RR("dec", isa.RCX, isa.RCX)
	b2.Branch("jnz", "loop")
	pc := b2.MustBuild()

	cm, _ := runSingle(t, cfg, pm)
	cc, _ := runSingle(t, cfg, pc)
	perIter := (float64(cm) - float64(cc)) / float64(iters)
	if perIter < float64(cfg.BranchPenalty)*0.7 {
		t.Errorf("mispredict cost %.1f cycles/iter, want ≈ %d", perIter, cfg.BranchPenalty)
	}
}

func TestInjectStallDelaysCompletion(t *testing.T) {
	cfg := uarch.Bulldozer()
	p := loopProgram(t, "l", 500, func(b *asm.Builder) { b.Nop(4) })
	run := func(stall uint64) uint64 {
		ch, _ := NewChip(cfg, power.BulldozerModel())
		th, _ := NewThread(p, 0)
		if err := ch.Attach(1, 0, th); err != nil {
			t.Fatal(err)
		}
		stalled := false
		for i := 0; i < 10_000_000 && !ch.Done(); i++ {
			if !stalled && ch.Cycle() == 100 && stall > 0 {
				if err := ch.InjectStall(cfg.CoresPerModule*1+0, stall); err != nil {
					t.Fatal(err)
				}
				stalled = true
			}
			ch.Step()
		}
		return ch.Cycle()
	}
	base := run(0)
	delayed := run(200)
	diff := int64(delayed) - int64(base)
	if diff < 180 || diff > 220 {
		t.Errorf("stall of 200 shifted completion by %d cycles", diff)
	}
}

func TestBarrierReleasesWithSkew(t *testing.T) {
	cfg := uarch.Bulldozer()
	mk := func() *asm.Program {
		b := asm.NewBuilder("bar")
		b.RI("movimm", isa.RCX, 50)
		b.Label("loop")
		b.Nop(2)
		b.Barrier(7)
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
		return b.MustBuild()
	}
	ch, _ := NewChip(cfg, power.BulldozerModel())
	for m := 0; m < 4; m++ {
		th, _ := NewThread(mk(), 0)
		if err := ch.Attach(m, 0, th); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10_000_000 && !ch.Done(); i++ {
		ch.Step()
	}
	if !ch.Done() {
		t.Fatal("barrier program deadlocked")
	}
}

func TestBarrierMismatchedThreadCountsStillComplete(t *testing.T) {
	// One thread has no barrier and finishes; the remaining three must
	// still release once the finished thread is excluded.
	cfg := uarch.Bulldozer()
	bar := asm.NewBuilder("bar").Nop(4).Barrier(1).Nop(4).MustBuild()
	plain := asm.NewBuilder("plain").Nop(2).MustBuild()
	ch, _ := NewChip(cfg, power.BulldozerModel())
	for m := 0; m < 3; m++ {
		th, _ := NewThread(bar, 0)
		if err := ch.Attach(m, 0, th); err != nil {
			t.Fatal(err)
		}
	}
	th, _ := NewThread(plain, 0)
	if err := ch.Attach(3, 0, th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && !ch.Done(); i++ {
		ch.Step()
	}
	if !ch.Done() {
		t.Fatal("deadlock with mixed barrier participation")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := uarch.Bulldozer()
	p := loopProgram(t, "d", 600, func(b *asm.Builder) {
		b.RRR("vfmadd132pd", isa.XMM(0), isa.XMM(1), isa.XMM(2))
		b.RR("mulpd", isa.XMM(3), isa.XMM(4))
		b.Load("load", isa.RAX, isa.RBP, 16)
		b.Nop(3)
	})
	c1, e1 := runSingle(t, cfg, p)
	c2, e2 := runSingle(t, cfg, p)
	if c1 != c2 || e1 != e2 {
		t.Errorf("nondeterministic: (%d,%.3f) vs (%d,%.3f)", c1, e1, c2, e2)
	}
}

func TestAttachErrors(t *testing.T) {
	cfg := uarch.Bulldozer()
	ch, _ := NewChip(cfg, power.BulldozerModel())
	p := asm.NewBuilder("x").Nop(1).MustBuild()
	th, _ := NewThread(p, 0)
	if err := ch.Attach(9, 0, th); err == nil {
		t.Error("bad module accepted")
	}
	if err := ch.Attach(0, 9, th); err == nil {
		t.Error("bad core accepted")
	}
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	th2, _ := NewThread(p, 0)
	if err := ch.Attach(0, 0, th2); err == nil {
		t.Error("double attach accepted")
	}
}

func TestPhenomConfigRuns(t *testing.T) {
	cfg := uarch.Phenom()
	p := loopProgram(t, "p", 500, func(b *asm.Builder) {
		b.RR("mulpd", isa.XMM(0), isa.XMM(1))
		b.RR("add", isa.RSI, isa.RDI)
		b.Nop(2)
	})
	ch, err := NewChip(cfg, power.PhenomModel())
	if err != nil {
		t.Fatal(err)
	}
	th, _ := NewThread(p, 0)
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && !ch.Done(); i++ {
		ch.Step()
	}
	if !ch.Done() {
		t.Fatal("phenom run did not finish")
	}
}

func TestUnitIssueCountsReported(t *testing.T) {
	cfg := uarch.Bulldozer()
	p := loopProgram(t, "u", 300, func(b *asm.Builder) {
		b.RRR("vfmadd132pd", isa.XMM(0), isa.XMM(1), isa.XMM(2))
		b.RR("add", isa.RSI, isa.RDI)
		b.Load("load", isa.RAX, isa.RBP, 0)
	})
	ch, _ := NewChip(cfg, power.BulldozerModel())
	th, _ := NewThread(p, 0)
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	var units [isa.NumUnits]int
	for i := 0; i < 1_000_000 && !ch.Done(); i++ {
		r := ch.Step()
		for u := 0; u < int(isa.NumUnits); u++ {
			units[u] += r.UnitIssues[u]
		}
	}
	if units[isa.UnitFPU] != 300 {
		t.Errorf("FPU issues = %d, want 300", units[isa.UnitFPU])
	}
	if units[isa.UnitLSU] != 300 {
		t.Errorf("LSU issues = %d, want 300", units[isa.UnitLSU])
	}
	if units[isa.UnitALU] < 600 {
		t.Errorf("ALU issues = %d, want ≥ 600 (adds + decs)", units[isa.UnitALU])
	}
	if units[isa.UnitBranch] != 300 {
		t.Errorf("branch issues = %d, want 300", units[isa.UnitBranch])
	}
}

func BenchmarkChipCycleThroughput(b *testing.B) {
	cfg := uarch.Bulldozer()
	bb := asm.NewBuilder("bench")
	bb.InitToggle(16, 8)
	bb.RI("movimm", isa.RCX, 1<<40)
	bb.Label("loop")
	for i := 0; i < 4; i++ {
		bb.RRR("vfmadd132pd", isa.XMM(2*(i%4)), isa.XMM(2*(i%4)+1), isa.XMM(8+(i%4)))
	}
	bb.Nop(6)
	bb.RR("dec", isa.RCX, isa.RCX)
	bb.Branch("jnz", "loop")
	p := bb.MustBuild()
	ch, err := NewChip(cfg, power.BulldozerModel())
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		th, _ := NewThread(p, 0)
		if err := ch.Attach(m, 0, th); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step()
	}
}

func TestGshareLearnsAlwaysTakenForwardBranch(t *testing.T) {
	// A forward branch that is always taken defeats the static
	// predictor on every iteration; gshare's counters learn it after a
	// handful of iterations.
	build := func() *asm.Program {
		b := asm.NewBuilder("fwd")
		b.RI("movimm", isa.RCX, 600)
		b.RI("movimm", isa.RAX, 1)
		b.Label("loop")
		b.RR("or", isa.RAX, isa.RAX)
		b.Branch("jnz", "skip")
		b.Nop(1)
		b.Label("skip")
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
		return b.MustBuild()
	}
	run := func(predictor string) (uint64, Stats) {
		cfg := uarch.Bulldozer()
		cfg.Predictor = predictor
		ch, err := NewChip(cfg, power.BulldozerModel())
		if err != nil {
			t.Fatal(err)
		}
		th, _ := NewThread(build(), 0)
		if err := ch.Attach(0, 0, th); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1_000_000 && !ch.Done(); i++ {
			ch.Step()
		}
		return ch.Cycle(), ch.Stats()
	}
	staticCycles, staticStats := run("static")
	gshareCycles, gshareStats := run("gshare")
	if staticStats.Mispredicts < 500 {
		t.Errorf("static should mispredict every forward-taken: %d", staticStats.Mispredicts)
	}
	if gshareStats.Mispredicts > staticStats.Mispredicts/4 {
		t.Errorf("gshare mispredicts %d, want far below static %d",
			gshareStats.Mispredicts, staticStats.Mispredicts)
	}
	if gshareCycles >= staticCycles {
		t.Errorf("gshare run (%d cycles) should beat static (%d)", gshareCycles, staticCycles)
	}
}

func TestStatsCountCaches(t *testing.T) {
	cfg := uarch.Bulldozer()
	p := loopProgram(t, "ld", 300, func(b *asm.Builder) {
		b.Load("load", isa.RAX, isa.RBP, 0)
	})
	ch, _ := NewChip(cfg, power.BulldozerModel())
	th, _ := NewThread(p, 0)
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && !ch.Done(); i++ {
		ch.Step()
	}
	s := ch.Stats()
	if s.L1Hits == 0 {
		t.Error("no L1 hits recorded for a hot load loop")
	}
	if s.L1Misses == 0 {
		t.Error("cold misses should be recorded")
	}
	if s.Branches != 300 {
		t.Errorf("branches = %d, want 300", s.Branches)
	}
}

// TestConsumerWaitsForSlowProducer: a consumer may not issue before
// its producer's result exists, however many younger instructions have
// been renamed in between. With MemLat 5000 the load's data arrives
// thousands of cycles after the 4096 instructions behind it, the last
// of them a writer, have decoded.
func TestConsumerWaitsForSlowProducer(t *testing.T) {
	cfg := uarch.Bulldozer()
	cfg.MemLat = 5000
	b := asm.NewBuilder("slow-producer")
	b.Load("load", isa.GPR(8), isa.RBP, 0)
	b.Nop(4095)
	b.RR("add", isa.GPR(10), isa.GPR(11))
	b.RR("add", isa.GPR(9), isa.GPR(8)) // consumes the load
	ch, err := NewChip(cfg, power.BulldozerModel())
	if err != nil {
		t.Fatal(err)
	}
	th, err := NewThread(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Attach(0, 0, th); err != nil {
		t.Fatal(err)
	}
	loadAt, consumerAt := int64(-1), int64(-1)
	for !ch.Done() && ch.Cycle() < 20000 {
		cyc := int64(ch.Cycle())
		r := ch.Step()
		if r.UnitIssues[isa.UnitLSU] > 0 {
			loadAt = cyc
		}
		if r.UnitIssues[isa.UnitALU] > 0 {
			consumerAt = cyc // the last ALU issue is the consumer's
		}
	}
	if !ch.Done() || loadAt < 0 || consumerAt < 0 {
		t.Fatalf("run incomplete: done=%v load@%d consumer@%d", ch.Done(), loadAt, consumerAt)
	}
	// The first touch of the line misses to memory.
	if ready := loadAt + int64(cfg.MemLat); consumerAt < ready {
		t.Errorf("consumer issued at cycle %d, before the load's data at %d", consumerAt, ready)
	}
	if ch.Cycle() <= uint64(loadAt)+uint64(cfg.MemLat) {
		t.Errorf("chip done at cycle %d, before the load's data exists", ch.Cycle())
	}
}

func TestBadPredictorRejected(t *testing.T) {
	cfg := uarch.Bulldozer()
	cfg.Predictor = "oracle"
	if _, err := NewChip(cfg, power.BulldozerModel()); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// BenchmarkCaptureHotLoop is the capture-side acceptance benchmark: one
// Chip.Step per iteration on a fully-populated Bulldozer chip running a
// representative stressmark mix (FP pipes, integer cluster, loads and
// stores, a barrier). One op is one simulated cycle, so cycles/sec =
// 1e9 / (ns/op); the steady-state allocation bar is 0 allocs/op.
func BenchmarkCaptureHotLoop(b *testing.B) {
	cfg := uarch.Bulldozer()
	bb := asm.NewBuilder("capture-bench")
	bb.SetMem(1 << 14)
	bb.InitToggle(16, 8)
	bb.RI("movimm", isa.RCX, 1<<40)
	bb.Label("loop")
	bb.RRR("vfmadd132pd", isa.XMM(0), isa.XMM(1), isa.XMM(8))
	bb.RRR("mulpd", isa.XMM(2), isa.XMM(3), isa.XMM(9))
	bb.RR("imul", isa.RAX, isa.RDX)
	bb.Load("load", isa.RBX, isa.RBP, 64)
	bb.Store("store", isa.RBP, 192, isa.RBX)
	bb.RR("popcnt", isa.RSI, isa.RAX)
	bb.Barrier(3)
	bb.RR("dec", isa.RCX, isa.RCX)
	bb.Branch("jnz", "loop")
	p := bb.MustBuild()
	ch, err := NewChip(cfg, power.BulldozerModel())
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < cfg.Modules; m++ {
		for c := 0; c < cfg.CoresPerModule; c++ {
			th, err := NewThread(p, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := ch.Attach(m, c, th); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}
