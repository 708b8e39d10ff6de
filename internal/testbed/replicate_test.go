package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/isa"
)

// tinyCachePlatform is Bulldozer with caches so small that the modules'
// lines overflow shared L3 sets: 2 L1 sets, 4 L2 sets and 4 three-way
// L3 sets of 64-byte lines. Under conflictProgram, aligned modules then
// see different L3 outcomes and a grouped capture diverges.
func tinyCachePlatform() Platform {
	p := Bulldozer()
	p.Chip.L1Bytes, p.Chip.L1Ways = 128, 1
	p.Chip.L2Bytes, p.Chip.L2Ways = 256, 1
	p.Chip.L3Bytes, p.Chip.L3Ways = 768, 3
	return p
}

// conflictProgram is a loop of loads that all land in one set of every
// cache of tinyCachePlatform: two or three loads that issue together,
// then a NOP gap and a lone reload of the first line. With two modules
// in a three-way L3 set, the representative misses where its member
// hits. shape's bits pick the load count, the gaps and the stride.
func conflictProgram(shape uint8) *asm.Program {
	b := asm.NewBuilder(fmt.Sprintf("conflict%d", shape))
	b.SetMem(4096)
	b.RI("movimm", isa.RCX, 1<<20)
	b.RI("movimm", isa.RBP, 0)
	b.Label("loop")
	stride := int32(256) << (shape >> 6 & 1)
	regs := []isa.Reg{isa.RAX, isa.RDX, isa.RBX}
	for i := 0; i < 2+int(shape&1); i++ {
		b.Load("load", regs[i], isa.RBP, int32(i)*stride)
	}
	b.Nop(1 + int(shape>>1&7))
	b.Load("load", isa.RSI, isa.RBP, 0)
	b.Nop(1 + int(shape>>4&3)*4)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	return b.MustBuild()
}

var (
	replicateOnce      sync.Once
	replicatePlatforms [2]*CompiledPlatform // Bulldozer, tinyCachePlatform
)

func replicatePlatform(t testing.TB, tiny bool) *CompiledPlatform {
	replicateOnce.Do(func() {
		for i, p := range []Platform{Bulldozer(), tinyCachePlatform()} {
			cp, err := p.Compile()
			if err != nil {
				panic(err)
			}
			replicatePlatforms[i] = cp
		}
	})
	if tiny {
		return replicatePlatforms[1]
	}
	return replicatePlatforms[0]
}

// unreplicated captures rc on a fresh chip with every module stepped.
func unreplicated(t testing.TB, cp *CompiledPlatform, rc RunConfig) *chipTrace {
	t.Helper()
	chip, err := cpu.NewChip(cp.p.Chip, cp.p.Power)
	if err != nil {
		t.Fatal(err)
	}
	tr := new(chipTrace)
	if _, err := cp.capture(chip, tr, rc, false); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameTrace fails t unless got and want hold the same cycles, bit for
// bit, and the same end state.
func sameTrace(t testing.TB, what string, got, want *chipTrace) {
	t.Helper()
	if len(got.energy) != len(want.energy) || got.done != want.done || got.unsupported != want.unsupported {
		t.Fatalf("%s: %d cycles (done %v, unsupported %v), want %d (done %v, unsupported %v)", what,
			len(got.energy), got.done, got.unsupported, len(want.energy), want.done, want.unsupported)
	}
	for i := range want.energy {
		if math.Float64bits(got.energy[i]) != math.Float64bits(want.energy[i]) || got.issues[i] != want.issues[i] {
			t.Fatalf("%s: cycle %d: energy %v issues %#x, want %v and %#x", what, i,
				got.energy[i], got.issues[i], want.energy[i], want.issues[i])
		}
	}
	if got.endStats != want.endStats || got.endRetired != want.endRetired {
		t.Fatalf("%s: end stats %+v retired %d, want %+v and %d", what,
			got.endStats, got.endRetired, want.endStats, want.endRetired)
	}
}

// replicatedCase builds a fuzz case's run: n threads of one program
// spread over the modules — conflictProgram(conflict) when conflict is
// not 0, else the random program of seed — with the given data segment,
// bound, start skews (2 bits a thread) and dither.
func replicatedCase(t testing.TB, cp *CompiledPlatform, seed int64, conflict uint8, n int, memBytes uint16, maxInstrs uint16, maxCycles uint16, skews uint16, dither uint8) RunConfig {
	t.Helper()
	prog := conflictProgram(conflict)
	if conflict == 0 {
		var err error
		if prog, err = cputest.RandomLoopProgram(rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if memBytes > 0 {
		prog.MemBytes = int(memBytes)
	}
	threads, err := SpreadPlacement(cp.p.Chip, prog, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range threads {
		threads[i].MaxInstrs = uint64(maxInstrs)
		threads[i].StartSkew = uint64(skews>>(2*i)) & 3
	}
	rc := RunConfig{Threads: threads, MaxCycles: 1 + uint64(maxCycles)%3000}
	if dither != 0 {
		rc.Dither = []DitherSpec{{
			Core:         threads[int(dither)%n].GlobalCore(cp.p.Chip),
			PeriodCycles: 1 + uint64(dither)%61,
			PadCycles:    1 + uint64(dither)%3,
		}}
	}
	return rc
}

// checkReplicated captures rc as buildTrace does, stepping aligned
// modules once and recapturing a grouped run that diverged, and holds
// the result to the capture that steps every module. It reports
// whether the capture replicated and whether it was recaptured.
func checkReplicated(t testing.TB, cp *CompiledPlatform, rc RunConfig) (replicated, recaptured bool) {
	t.Helper()
	before := cp.TraceStats()
	got, err := cp.buildTrace(rc)
	if err != nil {
		t.Fatal(err)
	}
	after := cp.TraceStats()
	sameTrace(t, "opted-in capture", got, unreplicated(t, cp, rc))
	return after.Replicated > before.Replicated, after.Recaptures > before.Recaptures
}

// FuzzReplicatedCapture holds a capture that steps each class of
// aligned, identical modules once to the capture that steps every
// module: energy and issue word on every cycle, the end stats and the
// retired count, bit for bit. Inputs pick the program (a random one
// from the generator of the chip model's equivalence tests, or a
// conflictProgram), 1–8 threads of it, its data segment, bound and run
// length, per-thread start skews, a dither, and a platform whose caches
// are small enough that shared L3 sets overflow, so grouped captures
// diverge and are recaptured.
func FuzzReplicatedCapture(f *testing.F) {
	for _, s := range []struct {
		seed                                  int64
		conflict, threads                     uint8
		memBytes, maxInstrs, maxCycles, skews uint16
		dither                                uint8
		tiny                                  bool
	}{
		{1, 0, 3, 0, 0, 2000, 0, 0, false},
		{2, 0, 7, 0, 0, 2000, 0, 0, false},
		{3, 0, 3, 0, 500, 1500, 0, 0, true},
		{4, 0, 7, 4096, 0, 2999, 0, 0, true},
		{5, 0, 3, 0, 0, 2000, 0x5, 0, false},
		{6, 0, 1, 0, 0, 2000, 0, 9, false},
		{7, 0, 0, 0, 0, 1000, 0, 0, false},
		{8, 0, 5, 20000, 700, 2500, 0x30, 0, true},
		{0, 0x0e, 1, 0, 0, 2999, 0, 0, true},
		{0, 0x0f, 3, 0, 0, 2999, 0, 0, true},
		{0, 0x4e, 7, 0, 0, 2999, 0, 0, false},
	} {
		f.Add(s.seed, s.conflict, s.threads, s.memBytes, s.maxInstrs, s.maxCycles, s.skews, s.dither, s.tiny)
	}
	f.Fuzz(func(t *testing.T, seed int64, conflict, threads uint8, memBytes, maxInstrs, maxCycles, skews uint16, dither uint8, tiny bool) {
		cp := replicatePlatform(t, tiny)
		rc := replicatedCase(t, cp, seed, conflict, 1+int(threads)%8, memBytes, maxInstrs, maxCycles, skews, dither)
		checkReplicated(t, cp, rc)
	})
}

// TestReplicatedCaptureMatches runs the fuzz property over a fixed
// spread of cases, and requires that the mechanism is exercised: most
// captures replicate, and on the small-cache platform some grouped
// captures diverge and are recaptured.
func TestReplicatedCaptureMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var replicated, recaptured [2]int
	const cases = 48
	for i := 0; i < cases; i++ {
		tiny := i%2 == 1
		cp := replicatePlatform(t, tiny)
		skews := uint16(0)
		if i%5 == 4 {
			skews = uint16(rng.Intn(1 << 16))
		}
		conflict := uint8(0)
		if i%3 == 2 {
			conflict = uint8(rng.Intn(256))
		}
		rc := replicatedCase(t, cp, rng.Int63(), conflict, 1+i%8, uint16(rng.Intn(3)*4096), 0, 2999, skews, 0)
		r, rec := checkReplicated(t, cp, rc)
		ti := 0
		if tiny {
			ti = 1
		}
		if r {
			replicated[ti]++
		}
		if rec {
			recaptured[ti]++
		}
	}
	t.Logf("replicated %v, recaptured %v of %d cases a platform", replicated, recaptured, cases/2)
	if replicated[0] < cases/4 || replicated[1] == 0 {
		t.Errorf("replicated %v of %d captures a platform: the mechanism is not exercised", replicated, cases/2)
	}
	if recaptured[0] != 0 {
		t.Errorf("%d Bulldozer captures diverged", recaptured[0])
	}
	if recaptured[1] == 0 {
		t.Error("no small-cache capture diverged; the L3 check is not exercised")
	}
}

// loopOf is a long counted loop around body.
func loopOf(name string, body func(b *asm.Builder)) *asm.Program {
	b := asm.NewBuilder(name)
	b.RI("movimm", isa.RCX, 1<<20)
	b.Label("loop")
	body(b)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	return b.MustBuild()
}

func plainLoop() *asm.Program {
	return loopOf("plain", func(b *asm.Builder) { b.RR("add", isa.RAX, isa.RDX); b.Nop(3) })
}

func leaLoop() *asm.Program {
	return loopOf("lea", func(b *asm.Builder) { b.Load("lea", isa.RAX, isa.RDX, 8); b.RR("add", isa.RDX, isa.RAX) })
}

func barrierLoop() *asm.Program {
	return loopOf("barrier", func(b *asm.Builder) { b.RR("add", isa.RAX, isa.RDX); b.Barrier(1) })
}

// TestGroupingClassRule pins which runs group: threads of one program
// spread one per module group with the modules whose threads start at
// the same cycle, unless the program holds a lea or a barrier, or the
// run is dithered; a module alone has nothing to group with.
func TestGroupingClassRule(t *testing.T) {
	cp := replicatePlatform(t, false)
	plain, lea, barrier := plainLoop(), leaLoop(), barrierLoop()
	for _, tc := range []struct {
		name  string
		prog  *asm.Program
		n     int
		skew  uint64
		dith  bool
		group bool
	}{
		{"plain-4", plain, 4, 0, false, true},
		{"plain-8", plain, 8, 0, false, true},
		{"plain-1", plain, 1, 0, false, false},
		{"lea", lea, 4, 0, false, false},
		{"barrier", barrier, 4, 0, false, false},
		{"skewed", plain, 4, 3, false, true}, // threads 1–3 share a skew
		{"dithered", plain, 4, 0, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			threads, err := SpreadPlacement(cp.p.Chip, tc.prog, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(threads); i++ {
				threads[i].StartSkew = tc.skew
			}
			rc := RunConfig{Threads: threads, MaxCycles: 500}
			if tc.dith {
				rc.Dither = []DitherSpec{{Core: 0, PeriodCycles: 50, PadCycles: 1}}
			}
			if got, rec := checkReplicated(t, cp, rc); got != tc.group || rec {
				t.Errorf("replicated %v recaptured %v, want replicated %v", got, rec, tc.group)
			}
		})
	}
}
