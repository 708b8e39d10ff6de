// Package cputest holds the randomized program generator that the chip
// model's equivalence tests and the testbed's capture fuzzing share.
package cputest

import (
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/isa"
)

// RandomLoopProgram builds a terminating random program from rng:
// counter setup, a body of random-shaped ops over every opcode class
// (rcx reserved for the loop counter), then dec/jnz. Bodies may include
// barriers, which at the functional layer just emit barrier uops, and
// runs of 1–64 NOPs, as GA candidates hold in their NOP slots and
// low-power regions.
func RandomLoopProgram(rng *rand.Rand) (*asm.Program, error) {
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
	return b.Build()
}
