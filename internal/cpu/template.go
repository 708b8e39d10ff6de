package cpu

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// This file is the capture-side fast path's front half: every static
// instruction of a program is compiled once, at NewThread, into a flat
// uopTemplate — operand register indices, branch kind, energy and
// latency constants, dependency/flag behaviour and a pre-resolved exec
// kernel — so neither Thread.step nor the chip's decode/issue/execute
// stages re-interpret isa.Instruction fields per dynamic instance.
// Templates change scheduling-irrelevant representation only: the
// golden and randomized equivalence tests hold the template path
// bit-identical to the reference interpreter.

// SrcA selection (the toggle-accounting primary source), mirroring the
// precedence of the interpreter: explicit source, else old destination,
// else loaded memory value.
const (
	srcANone uint8 = iota
	srcASrc1
	srcADstOld
	srcAMem
)

// Branch kinds. brOther covers hypothetical conditional opcodes the
// interpreter treats as always-taken.
const (
	brNone uint8 = iota
	brJmp
	brCond
	brOther
)

// uopTemplate is the pre-decoded form of one static instruction.
type uopTemplate struct {
	in   *isa.Instruction
	exec isa.ExecFn

	class isa.Class
	unit  isa.Unit

	// Register-file flat indices; -1 when the operand is absent.
	dstIdx    int16 // architectural write target (Dest())
	dstOldIdx int16 // implicit dst read of two-operand forms
	src1Idx   int16
	src2Idx   int16
	baseIdx   int16 // address base of memory-shaped ops

	// Rename sources in program order (dst-as-src, src1, src2, base).
	srcRegs [4]int16
	nsrc    uint8

	srcASel   uint8
	dstIsSrc  bool
	flagWrite bool
	isMem     bool
	isLoad    bool
	isStore   bool
	isFP      bool

	branchKind uint8
	backBranch bool
	target     int
	btHash     uint32 // predictor index base (static per branch site)

	disp uint64 // sign-extended MemDisp

	barrierID   int64
	barrierSlot int32 // chip barrier-registry slot, filled at Attach

	// nopRun is, for a NOP, the length of the run of same-opcode NOPs
	// starting here (0 for other classes): Thread.ConsumeNops retires
	// up to that many in one call.
	nopRun int32

	energyPJ   float64
	oneMinusTF float64 // 1 - ToggleFraction, folded once at compile
	toggleTF   float64
	latency    uint64
	recipTP    uint64
}

// compileTemplates pre-decodes every instruction of p.
func compileTemplates(p *asm.Program) []uopTemplate {
	tmpl := make([]uopTemplate, len(p.Code))
	for pc := range p.Code {
		in := &p.Code[pc]
		op := in.Op
		t := &tmpl[pc]
		t.in = in
		t.exec = isa.KernelOf(in)
		t.class = op.Class
		t.unit = op.Unit
		t.isFP = op.Unit == isa.UnitFPU
		t.isMem = op.Class.IsMem()
		t.isLoad = op.Class == isa.ClassLoad
		t.isStore = op.Class == isa.ClassStore
		t.energyPJ = op.EnergyPJ
		t.oneMinusTF = 1 - op.ToggleFraction
		t.toggleTF = op.ToggleFraction
		t.latency = uint64(op.Latency)
		t.recipTP = uint64(op.RecipThroughput)
		t.dstIdx, t.dstOldIdx, t.src1Idx, t.src2Idx, t.baseIdx = -1, -1, -1, -1, -1
		t.barrierSlot = -1

		if d := in.Dest(); d.Valid() {
			t.dstIdx = int16(d.FlatIndex())
			t.flagWrite = d.Kind == isa.RegGPR && flagWriting(op.Class)
		}
		t.dstIsSrc = op.DstIsSrc && in.Dst.Valid()
		if t.dstIsSrc {
			t.dstOldIdx = int16(in.Dst.FlatIndex())
		}
		if in.Src1.Valid() {
			t.src1Idx = int16(in.Src1.FlatIndex())
		}
		if in.Src2.Valid() {
			t.src2Idx = int16(in.Src2.FlatIndex())
		}
		if in.MemBase.Valid() {
			t.baseIdx = int16(in.MemBase.FlatIndex())
			t.disp = uint64(int64(in.MemDisp))
		}

		switch {
		case t.src1Idx >= 0:
			t.srcASel = srcASrc1
		case t.dstIsSrc:
			t.srcASel = srcADstOld
		case t.isLoad:
			t.srcASel = srcAMem
		default:
			t.srcASel = srcANone
		}

		n := 0
		if t.dstIsSrc {
			t.srcRegs[n] = t.dstOldIdx
			n++
		}
		if t.src1Idx >= 0 {
			t.srcRegs[n] = t.src1Idx
			n++
		}
		if t.src2Idx >= 0 {
			t.srcRegs[n] = t.src2Idx
			n++
		}
		if t.baseIdx >= 0 {
			t.srcRegs[n] = t.baseIdx
			n++
		}
		t.nsrc = uint8(n)

		switch op.Class {
		case isa.ClassBranch:
			switch op.Name {
			case "jmp":
				t.branchKind = brJmp
			case "jnz":
				t.branchKind = brCond
			default:
				t.branchKind = brOther
			}
			t.target = in.Target
			t.backBranch = in.Target <= pc
			h := uint32(in.Target)
			for _, r := range in.Label {
				h = h*31 + uint32(r)
			}
			t.btHash = h
		case isa.ClassBarrier:
			t.barrierID = in.Imm
		}
	}
	for pc := len(tmpl) - 1; pc >= 0; pc-- {
		t := &tmpl[pc]
		if t.class != isa.ClassNOP {
			continue
		}
		t.nopRun = 1
		if pc+1 < len(tmpl) && tmpl[pc+1].in.Op == t.in.Op {
			t.nopRun += tmpl[pc+1].nopRun
		}
	}
	return tmpl
}
