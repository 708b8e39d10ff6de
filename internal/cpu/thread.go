package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Uop is one dynamic micro-op produced by a thread's functional
// execution, carrying the real operand/result values the power model
// needs for data-toggle energy.
type Uop struct {
	In *isa.Instruction
	// SrcA is the primary source value and Result the computed result
	// (both zero for NOPs/branches/stores-of-nothing).
	SrcA   isa.Value
	Result isa.Value
	// Addr is the global effective address for memory ops.
	Addr uint64
	// Taken and BackBranch describe branch behaviour.
	Taken      bool
	BackBranch bool
	// BarrierID is ≥0 for barrier uops, -1 otherwise.
	BarrierID int64
	// Seq is the dynamic instruction number within the thread.
	Seq uint64

	// tpl is the pre-decoded template of the static instruction; the
	// timing model reads opcode metadata from it instead of In.Op.
	tpl *uopTemplate
}

const defaultMemBytes = 4096

// Thread functionally executes a program in order, producing the uop
// stream the timing model consumes. It owns the architectural register
// file and a private data segment; a per-thread global address base
// keeps different threads' lines distinct in the shared caches.
type Thread struct {
	prog *asm.Program
	tmpl []uopTemplate
	pc   int
	regs [isa.TotalRegs]isa.Value
	mem  []byte
	// zeroFlag models the subset of RFLAGS jnz consumes: set by the
	// most recent flag-writing integer op.
	zeroFlag bool

	globalBase uint64
	seq        uint64
	maxInstrs  uint64 // 0 = unbounded
	done       bool

	// The decoder's lookahead: step fills cur in place, so a uop is
	// built once and read through a pointer until it is consumed.
	cur    Uop
	curOK  bool
	primed bool
}

// NewThread prepares a thread for the given program. maxInstrs bounds
// dynamic instruction count (0 = run until the program ends naturally).
func NewThread(p *asm.Program, maxInstrs uint64) (*Thread, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	memBytes := p.MemBytes
	if memBytes <= 0 {
		memBytes = defaultMemBytes
	}
	// Round to a multiple of 16 so 128-bit accesses can wrap cleanly.
	memBytes = (memBytes + 15) &^ 15
	t := &Thread{prog: p, tmpl: compileTemplates(p), mem: make([]byte, memBytes), maxInstrs: maxInstrs}
	for r, v := range p.InitRegs {
		t.regs[r.FlatIndex()] = v
	}
	return t, nil
}

// SetGlobalBase assigns the thread's base in the global physical
// address space used by the shared caches.
func (t *Thread) SetGlobalBase(base uint64) { t.globalBase = base }

// Program returns the program under execution.
func (t *Thread) Program() *asm.Program { return t.prog }

// Done reports whether the stream is exhausted.
func (t *Thread) Done() bool {
	t.prime()
	return !t.curOK
}

// Peek returns the next uop without consuming it.
func (t *Thread) Peek() (*Uop, bool) {
	t.prime()
	if !t.curOK {
		return nil, false
	}
	return &t.cur, true
}

// Consume advances past the uop returned by Peek.
func (t *Thread) Consume() {
	t.prime()
	t.primed = false
}

// ConsumeNops retires the NOP returned by Peek together with up to
// max-1 NOPs of the same opcode that directly follow it, and returns
// how many it retired (1 ≤ n ≤ max; max must be at least 1). The
// followers come straight from the templates: a NOP reads no register,
// writes nothing and yields a zero uop, so retiring them only advances
// pc and the dynamic count. The MaxInstrs bound holds exactly as for
// Peek/Consume, and the thread is left unprimed, as after Consume: the
// next Peek executes the instruction behind the last NOP retired. The
// caller must have seen a NOP from Peek.
func (t *Thread) ConsumeNops(max int) int {
	t.primed = false
	// A NOP falls through, so the primed one sits at pc-1; its run
	// counts it and the same-opcode NOPs behind it.
	n := min(max, int(t.tmpl[t.pc-1].nopRun))
	if t.maxInstrs > 0 && uint64(n-1) > t.maxInstrs-t.seq {
		n = int(t.maxInstrs-t.seq) + 1
	}
	t.pc += n - 1
	t.seq += uint64(n - 1)
	return n
}

func (t *Thread) prime() {
	if t.primed {
		return
	}
	t.curOK = t.step()
	t.primed = true
}

// Retired returns the dynamic instruction count so far.
func (t *Thread) Retired() uint64 { return t.seq }

// PC returns the current program counter: the index of the next
// instruction the thread will execute (past any primed lookahead).
func (t *Thread) PC() int { return t.pc }

// stateFP folds the thread's control state — program counter, decode
// lookahead and flag state — into the chip fingerprint. Architectural
// register values and the monotone seq counter are deliberately
// excluded: the fingerprint only needs to recur when the control state
// does, and the trace verification pass is the correctness gate.
func (t *Thread) stateFP() uint64 {
	fp := uint64(t.pc)<<4 | 1
	if t.primed {
		fp |= 1 << 1
	}
	if t.curOK {
		fp |= 1 << 2
	}
	if t.zeroFlag {
		fp |= 1 << 3
	}
	return fp
}

// step executes one instruction functionally into the lookahead
// t.cur, driven entirely by the pre-decoded template of the static
// instruction at pc; false when the stream is exhausted.
func (t *Thread) step() bool {
	if t.done || t.pc < 0 || t.pc >= len(t.tmpl) ||
		(t.maxInstrs > 0 && t.seq >= t.maxInstrs) {
		t.done = true
		t.cur = Uop{}
		return false
	}
	tpl := &t.tmpl[t.pc]
	u := &t.cur
	u.In, u.tpl, u.Seq = tpl.in, tpl, t.seq
	u.BarrierID = -1
	t.seq++

	// Resolve address for memory-shaped ops.
	var localAddr uint64
	u.Addr = 0
	if tpl.baseIdx >= 0 {
		localAddr = (t.regs[tpl.baseIdx].Lo + tpl.disp) % uint64(len(t.mem))
		localAddr &^= 15
		u.Addr = t.globalBase + localAddr
	}

	var dstOld, src1, src2, memv isa.Value
	if tpl.dstIsSrc {
		dstOld = t.regs[tpl.dstOldIdx]
	}
	if tpl.src1Idx >= 0 {
		src1 = t.regs[tpl.src1Idx]
	}
	if tpl.src2Idx >= 0 {
		src2 = t.regs[tpl.src2Idx]
	}

	switch tpl.class {
	case isa.ClassLoad:
		memv = t.load(localAddr)
	case isa.ClassStore:
		t.store(localAddr, src1)
	case isa.ClassBarrier:
		u.BarrierID = tpl.barrierID
	}

	// Primary source for toggle accounting: prefer an explicit source,
	// else the old destination, else the memory value.
	switch tpl.srcASel {
	case srcASrc1:
		u.SrcA = src1
	case srcADstOld:
		u.SrcA = dstOld
	case srcAMem:
		u.SrcA = memv
	default:
		u.SrcA = isa.Value{}
	}

	if tpl.branchKind != brNone {
		u.Taken = tpl.branchKind != brCond || !t.zeroFlag
		u.BackBranch = tpl.backBranch
		u.Result = isa.Value{}
		if u.Taken {
			t.pc = tpl.target
		} else {
			t.pc++
		}
		return true
	}

	u.Taken, u.BackBranch = false, false
	res := tpl.exec(dstOld, src1, src2, t.globalBase+localAddr, memv)
	u.Result = res
	if tpl.dstIdx >= 0 {
		t.regs[tpl.dstIdx] = res
		if tpl.flagWrite {
			t.zeroFlag = res.Lo == 0
		}
	}
	t.pc++
	return true
}

// flagWriting reports whether the class updates the zero flag, matching
// x86 where arithmetic/logic ops set flags but moves and loads do not.
func flagWriting(c isa.Class) bool {
	switch c {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		return true
	}
	return false
}

func (t *Thread) load(addr uint64) isa.Value {
	if addr+16 <= uint64(len(t.mem)) {
		return isa.Value{
			Lo: binary.LittleEndian.Uint64(t.mem[addr:]),
			Hi: binary.LittleEndian.Uint64(t.mem[addr+8:]),
		}
	}
	return isa.Value{}
}

func (t *Thread) store(addr uint64, v isa.Value) {
	if addr+16 <= uint64(len(t.mem)) {
		binary.LittleEndian.PutUint64(t.mem[addr:], v.Lo)
		binary.LittleEndian.PutUint64(t.mem[addr+8:], v.Hi)
	}
}

// Reg returns the current architectural value of a register (testing
// and debugging aid).
func (t *Thread) Reg(r isa.Reg) (isa.Value, error) {
	if !r.Valid() {
		return isa.Value{}, fmt.Errorf("cpu: invalid register")
	}
	return t.regs[r.FlatIndex()], nil
}
