package isa

import "math/bits"

// ExecFn is the pre-resolved architectural semantics of one static
// instruction: Exec's class/name dispatch done once at setup instead of
// once per dynamic instance. Kernels receive the same inputs as Exec
// and must produce bit-identical results; TestKernelMatchesExec holds
// every opcode to that.
type ExecFn func(dstOld, src1, src2 Value, addr uint64, mem Value) Value

// KernelOf compiles in's semantics to a flat function. Immediate-using
// ops (movimm, shl, rol) capture their operand at compile time; all
// other kernels are shared package-level functions.
func KernelOf(in *Instruction) ExecFn {
	switch in.Op.Class {
	case ClassNOP, ClassStore, ClassBranch, ClassBarrier:
		return execZero
	case ClassMove:
		if in.Op.Shape == ShapeRI {
			imm := Value{Lo: uint64(in.Imm)}
			return func(_, _, _ Value, _ uint64, _ Value) Value { return imm }
		}
		return execSrc1
	case ClassIntALU:
		switch in.Op.Name {
		case "add":
			return execAdd
		case "sub":
			return execSub
		case "xor":
			return execXor
		case "and":
			return execAnd
		case "or":
			return execOr
		case "shl":
			sh := uint64(in.Imm) & 63
			return func(d, _, _ Value, _ uint64, _ Value) Value {
				return Value{Lo: d.Lo << sh}
			}
		case "rol":
			r := int(in.Imm) & 63
			return func(d, _, _ Value, _ uint64, _ Value) Value {
				return Value{Lo: bits.RotateLeft64(d.Lo, r)}
			}
		case "dec":
			return execDec
		case "popcnt":
			return execPopcnt
		}
		return execAdd
	case ClassIntMul:
		return execIMul
	case ClassIntDiv:
		return execIDiv
	case ClassLEA:
		return execLEA
	case ClassFPAdd:
		return execFPAdd
	case ClassFPMul:
		return execFPMul
	case ClassFPDiv:
		return execFPDiv
	case ClassFMA:
		return execFMA
	case ClassSIMDInt:
		switch in.Op.Name {
		case "paddd":
			return execPaddd
		case "pmulld":
			return execPmulld
		}
		return execPxor
	case ClassLoad:
		return execLoad
	}
	return execZero
}

func execZero(_, _, _ Value, _ uint64, _ Value) Value  { return Value{} }
func execSrc1(_, s1, _ Value, _ uint64, _ Value) Value { return s1 }

func execAdd(d, s1, _ Value, _ uint64, _ Value) Value { return Value{Lo: d.Lo + s1.Lo} }
func execSub(d, s1, _ Value, _ uint64, _ Value) Value { return Value{Lo: d.Lo - s1.Lo} }
func execXor(d, s1, _ Value, _ uint64, _ Value) Value { return Value{Lo: d.Lo ^ s1.Lo} }
func execAnd(d, s1, _ Value, _ uint64, _ Value) Value { return Value{Lo: d.Lo & s1.Lo} }
func execOr(d, s1, _ Value, _ uint64, _ Value) Value  { return Value{Lo: d.Lo | s1.Lo} }
func execDec(d, _, _ Value, _ uint64, _ Value) Value  { return Value{Lo: d.Lo - 1} }

func execPopcnt(_, s1, _ Value, _ uint64, _ Value) Value {
	return Value{Lo: uint64(bits.OnesCount64(s1.Lo))}
}

func execIMul(d, s1, _ Value, _ uint64, _ Value) Value { return Value{Lo: d.Lo * s1.Lo} }

func execIDiv(d, s1, _ Value, _ uint64, _ Value) Value {
	dv := s1.Lo
	if dv == 0 {
		dv = 1
	}
	return Value{Lo: d.Lo / dv}
}

func execLEA(_, _, _ Value, addr uint64, _ Value) Value { return Value{Lo: addr} }

func execFPAdd(d, s1, _ Value, _ uint64, _ Value) Value {
	return fpBinop(d, s1, func(x, y float64) float64 { return x + y })
}

func execFPMul(d, s1, _ Value, _ uint64, _ Value) Value {
	return fpBinop(d, s1, func(x, y float64) float64 { return x * y })
}

func execFPDiv(d, s1, _ Value, _ uint64, _ Value) Value {
	return fpBinop(d, s1, func(x, y float64) float64 {
		if y == 0 {
			y = 1
		}
		return x / y
	})
}

func execFMA(d, s1, s2 Value, _ uint64, _ Value) Value {
	dlo, dhi := d.Float64s()
	alo, ahi := s1.Float64s()
	blo, bhi := s2.Float64s()
	return FromFloat64s(sanitize(dlo*alo+blo), sanitize(dhi*ahi+bhi))
}

func execPaddd(d, s1, _ Value, _ uint64, _ Value) Value {
	return Value{Lo: paddd32(d.Lo, s1.Lo), Hi: paddd32(d.Hi, s1.Hi)}
}

func execPmulld(d, s1, _ Value, _ uint64, _ Value) Value {
	return Value{Lo: pmul32(d.Lo, s1.Lo), Hi: pmul32(d.Hi, s1.Hi)}
}

func execPxor(d, s1, _ Value, _ uint64, _ Value) Value {
	return Value{Lo: d.Lo ^ s1.Lo, Hi: d.Hi ^ s1.Hi}
}

func execLoad(_, _, _ Value, _ uint64, mem Value) Value { return mem }
