package cpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

// This file pins the capture path bit-for-bit. The golden hashes below
// were recorded from the per-dynamic-instance interpreter that predates
// the pre-decoded uop templates; the template path must reproduce every
// per-cycle EnergyPJ bit pattern, unit-issue vector, decode count and
// StateFingerprint, plus the final Stats, exactly. Regenerate (only
// when a scenario itself changes, never to paper over a diff) with:
//
//	AUDIT_GOLDEN_REGEN=1 go test -run TestGoldenCaptureEquivalence -v ./internal/cpu/
//

// captureHash steps the chip up to maxCycles (or Done) and folds every
// observable of the capture loop into one FNV-1a hash: the per-cycle
// fingerprint, the raw float64 bits of EnergyPJ, the unit-issue vector,
// the decode count, and the final Stats and retired count.
func captureHash(ch *Chip, maxCycles int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	for i := 0; i < maxCycles && !ch.Done(); i++ {
		r := ch.Step()
		mix(ch.StateFingerprint())
		mix(math.Float64bits(r.EnergyPJ))
		for _, n := range r.UnitIssues {
			mix(uint64(n))
		}
		mix(uint64(r.Decoded))
	}
	s := ch.Stats()
	for _, v := range []uint64{
		s.Branches, s.Mispredicts,
		s.L1Hits, s.L1Misses, s.L2Hits, s.L2Misses, s.L3Hits, s.L3Misses,
		ch.Retired(), ch.Cycle(),
	} {
		mix(v)
	}
	return h
}

// equivScenario is one deterministic chip setup exercised by the golden
// test. setup returns a chip with threads attached and any stalls or
// throttles applied.
type equivScenario struct {
	name   string
	cycles int
	setup  func(t *testing.T) *Chip
}

func mustProgram(t *testing.T, name string, body func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(name)
	body(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// attachAll places prog on every hardware thread of the chip.
func attachAll(t *testing.T, ch *Chip, prog *asm.Program, maxInstrs uint64) {
	t.Helper()
	cfg := ch.Config()
	for m := 0; m < cfg.Modules; m++ {
		for c := 0; c < cfg.CoresPerModule; c++ {
			th, err := NewThread(prog, maxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			th.SetGlobalBase(uint64(m*cfg.CoresPerModule+c) * 64)
			if err := ch.Attach(m, c, th); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func equivScenarios() []equivScenario {
	return []equivScenario{
		{name: "fma-loop", cycles: 4000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "fma", func(b *asm.Builder) {
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.Label("loop")
				for i := 0; i < 4; i++ {
					b.RRR("vfmadd132pd", isa.XMM(i%12), isa.XMM(12+(i%2)), isa.XMM(14+(i%2)))
				}
				b.Nop(6)
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			return ch
		}},
		{name: "int-mix", cycles: 4000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "intmix", func(b *asm.Builder) {
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.RI("movimm", isa.RAX, 0x0123456789ABCDEF)
				b.RI("movimm", isa.RDX, 97)
				b.Label("loop")
				b.RR("imul", isa.RAX, isa.RDX)
				b.RR("popcnt", isa.RBX, isa.RAX)
				b.RI("shl", isa.RSI, 3)
				b.RI("rol", isa.RDI, 11)
				b.RR("idiv", isa.GPR(8), isa.RDX)
				b.Load("lea", isa.GPR(9), isa.RAX, 24)
				b.RR("xor", isa.GPR(10), isa.RAX)
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			return ch
		}},
		{name: "mem-stride", cycles: 6000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "mem", func(b *asm.Builder) {
				b.SetMem(1 << 16)
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.RI("movimm", isa.RBP, 0)
				b.RI("movimm", isa.RDX, 1088)
				b.Label("loop")
				b.Load("load", isa.RAX, isa.RBP, 0)
				b.Load("loadx", isa.XMM(0), isa.RBP, 4096)
				b.Store("store", isa.RBP, 128, isa.RAX)
				b.Store("storex", isa.RBP, 8192, isa.XMM(1))
				b.RR("add", isa.RBP, isa.RDX)
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			return ch
		}},
		{name: "barrier-sync", cycles: 6000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "barrier", func(b *asm.Builder) {
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.Label("loop")
				b.RR("add", isa.RAX, isa.RDX)
				b.Barrier(7)
				b.RRR("mulpd", isa.XMM(2), isa.XMM(3), isa.XMM(4))
				b.Barrier(9)
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			return ch
		}},
		{name: "throttled-skewed", cycles: 5000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "mixed", func(b *asm.Builder) {
				b.SetMem(1 << 14)
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.Label("loop")
				b.RRR("addpd", isa.XMM(0), isa.XMM(1), isa.XMM(2))
				b.RRR("divsd", isa.XMM(3), isa.XMM(4), isa.XMM(5))
				b.RR("movaps", isa.XMM(6), isa.XMM(0))
				b.Load("load", isa.RAX, isa.RBP, 64)
				b.RR("imul", isa.RDX, isa.RAX)
				b.RRR("paddd", isa.XMM(7), isa.XMM(8), isa.XMM(9))
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			ch.SetFPThrottle(2)
			for g := 0; g < 8; g++ {
				if err := ch.InjectStall(g, uint64(3*g)); err != nil {
					t.Fatal(err)
				}
			}
			return ch
		}},
		{name: "phenom-mixed", cycles: 4000, setup: func(t *testing.T) *Chip {
			prog := mustProgram(t, "phmix", func(b *asm.Builder) {
				b.InitToggle(16, 8)
				b.RI("movimm", isa.RCX, 1<<30)
				b.Label("loop")
				b.RRR("addsd", isa.XMM(0), isa.XMM(1), isa.XMM(2))
				b.RRR("pmulld", isa.XMM(3), isa.XMM(4), isa.XMM(5))
				b.RRR("pxor", isa.XMM(6), isa.XMM(7), isa.XMM(8))
				b.RR("and", isa.RAX, isa.RDX)
				b.RR("or", isa.RBX, isa.RAX)
				b.RR("sub", isa.RSI, isa.RBX)
				b.RR("mov", isa.RDI, isa.RSI)
				b.RR("dec", isa.RCX, isa.RCX)
				b.Branch("jnz", "loop")
			})
			ch, err := NewChip(uarch.Phenom(), power.PhenomModel())
			if err != nil {
				t.Fatal(err)
			}
			attachAll(t, ch, prog, 0)
			return ch
		}},
		{name: "search-shape", cycles: 4000, setup: func(t *testing.T) *Chip {
			// The shape of a GA candidate: sub-block slots with NOP
			// holes replicated into the high-power region, a low-power
			// run of 68 NOPs, then dec/jnz — four threads spread one
			// per module, as SpreadPlacement puts them. Every thread's
			// MaxInstrs bound ends inside a low-power NOP run at a
			// different offset within a decode group.
			prog := mustProgram(t, "search", searchShapeBody)
			ch, err := NewChip(uarch.Bulldozer(), power.BulldozerModel())
			if err != nil {
				t.Fatal(err)
			}
			const perIter = searchShapeHP + searchShapeLP + 2
			for m, lpOffset := range []uint64{13, 30, 47, 66} {
				bound := 2 + uint64(40+5*m)*perIter + searchShapeHP + lpOffset
				th, err := NewThread(prog, bound)
				if err != nil {
					t.Fatal(err)
				}
				if err := ch.Attach(m, 0, th); err != nil {
					t.Fatal(err)
				}
				// Start skew, as RunConfig.StartSkew applies it.
				if err := ch.InjectStall(m*2, uint64(5*m)); err != nil {
					t.Fatal(err)
				}
			}
			return ch
		}},
	}
}

// Layout of searchShapeBody's loop: high-power slots, then the
// low-power NOP run.
const (
	searchShapeHP = 3 * 6 * 4
	searchShapeLP = 68
)

// searchShapeBody emits a search-shaped loop: S=3 copies of a 6-cycle
// by 4-slot sub-block mixing FP, integer and memory ops with NOP slots,
// a 68-NOP low-power run, and the dec/jnz closer.
func searchShapeBody(b *asm.Builder) {
	b.SetMem(4096)
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, 1<<30)
	b.RI("movimm", isa.RBP, 0)
	b.Label("loop")
	slot := 0
	for rep := 0; rep < 3; rep++ {
		for row := 0; row < 6; row++ {
			for w := 0; w < 4; w++ {
				switch (row*4 + w) % 8 {
				case 0:
					b.RRR("vfmadd132pd", isa.XMM(row%12), isa.XMM(12+w%4), isa.XMM(13))
				case 1:
					b.RRR("mulpd", isa.XMM((row+3)%12), isa.XMM(14), isa.XMM(15))
				case 3:
					b.RR("imul", isa.GPR(8+row%8), isa.RSI)
				case 4:
					b.Load("load", isa.GPR(9+row%6), isa.RBP, int32(slot*64%4096))
				case 6:
					b.Store("store", isa.RBP, int32(slot*64%4096), isa.GPR(8+w))
				default:
					b.Nop(1)
				}
				slot++
			}
		}
	}
	b.Nop(searchShapeLP)
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
}

// goldenCaptureHashes holds the recorded hashes of the pre-template
// interpreter; "search-shape" was recorded from the per-uop decode and
// rescanning issue loop that predate NOP-run retirement and wakeup
// readiness. See the file comment for how to regenerate.
var goldenCaptureHashes = map[string]uint64{
	"fma-loop":         0x2B330E2AC8843023,
	"int-mix":          0x607D83EFFEEC4531,
	"mem-stride":       0x7A78063C961DBB58,
	"barrier-sync":     0xE736DCA0FEACB251,
	"throttled-skewed": 0x7783EBDD33681FF1,
	"phenom-mixed":     0x2FFD049FC3961C39,
	"search-shape":     0x4E45B0D48095F263,
}

func TestGoldenCaptureEquivalence(t *testing.T) {
	regen := os.Getenv("AUDIT_GOLDEN_REGEN") != ""
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := captureHash(sc.setup(t), sc.cycles)
			if regen {
				fmt.Printf("\t%q: 0x%016X,\n", sc.name, got)
				return
			}
			want, ok := goldenCaptureHashes[sc.name]
			if !ok {
				t.Fatalf("no golden hash recorded for scenario %q", sc.name)
			}
			if got != want {
				t.Errorf("capture hash = 0x%016X, want 0x%016X (capture path diverged from the reference interpreter)", got, want)
			}
		})
	}
}

// ---- randomized functional equivalence ----

// refThread is the pre-template reference interpreter, preserved here
// verbatim so randomized programs can hold the template-driven
// Thread.step to bit-identical uop streams.
type refThread struct {
	prog       *asm.Program
	pc         int
	regs       [isa.TotalRegs]isa.Value
	mem        []byte
	zeroFlag   bool
	globalBase uint64
	seq        uint64
	maxInstrs  uint64
	done       bool
}

type refUop struct {
	in         *isa.Instruction
	srcA       isa.Value
	result     isa.Value
	addr       uint64
	taken      bool
	backBranch bool
	barrierID  int64
	seq        uint64
}

func newRefThread(p *asm.Program, maxInstrs uint64) *refThread {
	memBytes := p.MemBytes
	if memBytes <= 0 {
		memBytes = 4096
	}
	memBytes = (memBytes + 15) &^ 15
	t := &refThread{prog: p, mem: make([]byte, memBytes), maxInstrs: maxInstrs}
	for r, v := range p.InitRegs {
		t.regs[r.FlatIndex()] = v
	}
	return t
}

func (t *refThread) load(addr uint64) isa.Value {
	if addr+16 <= uint64(len(t.mem)) {
		return isa.Value{
			Lo: binary.LittleEndian.Uint64(t.mem[addr:]),
			Hi: binary.LittleEndian.Uint64(t.mem[addr+8:]),
		}
	}
	return isa.Value{}
}

func (t *refThread) store(addr uint64, v isa.Value) {
	if addr+16 <= uint64(len(t.mem)) {
		binary.LittleEndian.PutUint64(t.mem[addr:], v.Lo)
		binary.LittleEndian.PutUint64(t.mem[addr+8:], v.Hi)
	}
}

func (t *refThread) branchTaken(in *isa.Instruction) bool {
	switch in.Op.Name {
	case "jmp":
		return true
	case "jnz":
		return !t.zeroFlag
	}
	return true
}

func (t *refThread) step() (refUop, bool) {
	if t.done || t.pc < 0 || t.pc >= len(t.prog.Code) ||
		(t.maxInstrs > 0 && t.seq >= t.maxInstrs) {
		t.done = true
		return refUop{}, false
	}
	in := &t.prog.Code[t.pc]
	u := refUop{in: in, barrierID: -1, seq: t.seq}
	t.seq++

	var localAddr uint64
	if in.MemBase.Valid() {
		localAddr = (t.regs[in.MemBase.FlatIndex()].Lo + uint64(int64(in.MemDisp))) % uint64(len(t.mem))
		localAddr &^= 15
		u.addr = t.globalBase + localAddr
	}

	var dstOld, src1, src2, memv isa.Value
	if in.Op.DstIsSrc && in.Dst.Valid() {
		dstOld = t.regs[in.Dst.FlatIndex()]
	}
	if in.Src1.Valid() {
		src1 = t.regs[in.Src1.FlatIndex()]
	}
	if in.Src2.Valid() {
		src2 = t.regs[in.Src2.FlatIndex()]
	}

	switch in.Op.Class {
	case isa.ClassLoad:
		memv = t.load(localAddr)
	case isa.ClassStore:
		t.store(localAddr, src1)
	case isa.ClassBarrier:
		u.barrierID = in.Imm
	}

	switch {
	case in.Src1.Valid():
		u.srcA = src1
	case in.Op.DstIsSrc && in.Dst.Valid():
		u.srcA = dstOld
	case in.Op.Class == isa.ClassLoad:
		u.srcA = memv
	}

	if in.Op.Class == isa.ClassBranch {
		u.taken = t.branchTaken(in)
		u.backBranch = in.Target <= t.pc
		if u.taken {
			t.pc = in.Target
		} else {
			t.pc++
		}
		return u, true
	}

	res := isa.Exec(in, dstOld, src1, src2, t.globalBase+localAddr, memv)
	u.result = res
	if d := in.Dest(); d.Valid() {
		t.regs[d.FlatIndex()] = res
		if d.Kind == isa.RegGPR && flagWriting(in.Op.Class) {
			t.zeroFlag = res.Lo == 0
		}
	}
	t.pc++
	return u, true
}

// randomLoopProgram builds a terminating random program: counter setup,
// a body of random-shaped ops over every opcode class (rcx reserved for
// the loop counter), then dec/jnz. Bodies may include barriers, which
// at the functional layer just emit barrier uops, and runs of 1–64
// NOPs, as GA candidates hold in their NOP slots and low-power regions.
func randomLoopProgram(t *testing.T, rng *rand.Rand) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(fmt.Sprintf("rand%d", rng.Int63()))
	b.SetMem(1 << uint(10+rng.Intn(5)))
	b.InitToggle(16, 8)
	gpr := func() isa.Reg {
		for {
			r := rng.Intn(isa.NumGPR)
			if r != 1 { // rcx is the loop counter
				return isa.GPR(r)
			}
		}
	}
	xmm := func() isa.Reg { return isa.XMM(rng.Intn(isa.NumXMM)) }
	reg := func(k isa.RegKind) isa.Reg {
		if k == isa.RegXMM {
			return xmm()
		}
		return gpr()
	}
	ops := isa.AllOpcodes()
	b.RI("movimm", isa.RCX, int64(2+rng.Intn(40)))
	b.Label("loop")
	for n := 2 + rng.Intn(24); n > 0; n-- {
		if rng.Intn(3) == 0 {
			b.Nop(1 + rng.Intn(64))
		}
		op := ops[rng.Intn(len(ops))]
		imm := rng.Int63n(1 << 16)
		if rng.Intn(3) == 0 {
			imm = -imm
		}
		switch op.Shape {
		case isa.ShapeNone:
			b.Nop(1 + rng.Intn(64))
		case isa.ShapeRR:
			b.RR(op.Name, reg(op.RegKind), reg(op.RegKind))
		case isa.ShapeRRR:
			b.RRR(op.Name, reg(op.RegKind), reg(op.RegKind), reg(op.RegKind))
		case isa.ShapeRI:
			b.RI(op.Name, reg(op.RegKind), imm)
		case isa.ShapeLoad:
			b.Load(op.Name, reg(op.RegKind), gpr(), int32(rng.Intn(1<<14)-(1<<13)))
		case isa.ShapeStore:
			b.Store(op.Name, gpr(), int32(rng.Intn(1<<14)-(1<<13)), reg(op.RegKind))
		case isa.ShapeBarrier:
			b.Barrier(int64(rng.Intn(4)))
		case isa.ShapeBranch:
			// Skip in the body; the loop branch below covers the class.
		}
	}
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRandomizedStepEquivalence drives the template-driven Thread and
// the reference interpreter over the same random programs and requires
// bit-identical uop streams: instruction identity, operand and result
// values, addresses, branch behaviour, barrier ids and sequence
// numbers. At a NOP the thread often retires a run through
// ConsumeNops, as decode does; the reference steps each NOP of the run
// one at a time, and the run must stop exactly where the reference's
// NOPs or its MaxInstrs bound (random, so it often lands inside a run)
// do.
func TestRandomizedStepEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	endsInRun := 0
	for trial := 0; trial < 80; trial++ {
		p := randomLoopProgram(t, rng)
		maxInstrs := uint64(1 + rng.Intn(3000))
		th, err := NewThread(p, maxInstrs)
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(rng.Intn(8)+1) << 32
		th.SetGlobalBase(base)
		ref := newRefThread(p, maxInstrs)
		ref.globalBase = base
		inRun := false
		for n := 0; ; n++ {
			u, ok := th.Peek()
			ru, rok := ref.step()
			if ok != rok {
				t.Fatalf("trial %d uop %d: template ok=%v, reference ok=%v", trial, n, ok, rok)
			}
			if !ok {
				if pc := th.PC(); inRun && pc < len(p.Code) && p.Code[pc].Op.Class == isa.ClassNOP {
					endsInRun++
				}
				break
			}
			if u.In != ru.in || u.SrcA != ru.srcA || u.Result != ru.result ||
				u.Addr != ru.addr || u.Taken != ru.taken || u.BackBranch != ru.backBranch ||
				u.BarrierID != ru.barrierID || u.Seq != ru.seq {
				t.Fatalf("trial %d uop %d (%v): template %+v vs reference %+v", trial, n, u.In, u, ru)
			}
			inRun = u.In.Op.Class == isa.ClassNOP
			if !inRun || rng.Intn(4) == 0 {
				th.Consume()
				continue
			}
			max := 1 + rng.Intn(80)
			got := th.ConsumeNops(max)
			if got < 1 || got > max {
				t.Fatalf("trial %d uop %d: ConsumeNops(%d) = %d", trial, n, max, got)
			}
			for i := 1; i < got; i++ {
				ru, rok := ref.step()
				if !rok || ru.in.Op != u.In.Op || ru.seq != u.Seq+uint64(i) {
					t.Fatalf("trial %d uop %d: ConsumeNops retired %d, but reference uop %d is %v (ok=%v)", trial, n, got, i, ru.in, rok)
				}
			}
			n += got - 1
			if pc := th.PC(); got < max && pc < len(p.Code) && p.Code[pc].Op == u.In.Op && ref.seq < maxInstrs {
				t.Fatalf("trial %d uop %d: ConsumeNops(%d) stopped at %d before another NOP", trial, n, max, got)
			}
		}
		if th.Retired() != ref.seq {
			t.Fatalf("trial %d: retired %d, reference %d", trial, th.Retired(), ref.seq)
		}
	}
	t.Logf("%d of 80 trials hit MaxInstrs inside a NOP run", endsInRun)
	if endsInRun < 5 {
		t.Errorf("only %d trials hit MaxInstrs inside a NOP run; the generator no longer covers it", endsInRun)
	}
}
