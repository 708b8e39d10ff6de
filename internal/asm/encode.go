package asm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Binary encoding: a compact, deterministic serialisation of programs.
// This plays the role of the x86 object file NASM would produce — the
// simulator "loads" these images, and the GA can checkpoint candidate
// populations. Format (all little-endian):
//
//	magic   [4]byte  "ADT1"
//	name    u16 len + bytes
//	mem     u32
//	ninit   u16, then per entry: regKind u8, regIdx u8, lo u64, hi u64
//	nlabel  u16, then per entry: u16 len + bytes, u32 index
//	ncode   u32, then per instruction:
//	  opIdx u16 (index into sorted opcode names)
//	  dst, src1, src2, base: u8 kind, u8 idx each
//	  imm   i64
//	  disp  i32
//	  target u32
//	  label u16 len + bytes (branches only; 0 otherwise)
const magic = "ADT1"

// opcodeIndex gives stable small integers for opcodes (sorted by name).
var (
	opcodeIndex map[string]uint16
	opcodeSlice []*isa.Opcode
)

func init() {
	opcodeSlice = isa.AllOpcodes()
	opcodeIndex = make(map[string]uint16, len(opcodeSlice))
	for i, op := range opcodeSlice {
		opcodeIndex[op.Name] = uint16(i)
	}
}

// writer appends little-endian fields to an image.
type writer struct {
	b []byte
}

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}
func (w *writer) reg(r isa.Reg) {
	w.u8(uint8(r.Kind))
	w.u8(r.Index)
}

// Encode serialises the program.
func Encode(p *Program) ([]byte, error) {
	return AppendEncode(nil, p)
}

// AppendEncode appends the program's encoding, Encode's bytes, to dst
// and returns the extended slice. On an error dst is returned as it
// came.
func AppendEncode(dst []byte, p *Program) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	// Room for every fixed-size field of the format above; label text
	// grows the image as needed.
	w := writer{b: slices.Grow(dst, 18+len(p.Name)+18*len(p.InitRegs)+6*len(p.Labels)+28*len(p.Code))}
	w.b = append(w.b, magic...)
	w.str(p.Name)
	w.u32(uint32(p.MemBytes))

	// Programs name few registers and labels, so the sorts run on the
	// stack.
	var regBuf [isa.NumGPR + isa.NumXMM]isa.Reg
	regs := regBuf[:0]
	for r := range p.InitRegs {
		regs = append(regs, r)
	}
	slices.SortFunc(regs, func(a, b isa.Reg) int { return cmp.Compare(a.FlatIndex(), b.FlatIndex()) })
	w.u16(uint16(len(regs)))
	for _, r := range regs {
		v := p.InitRegs[r]
		w.reg(r)
		w.u64(v.Lo)
		w.u64(v.Hi)
	}

	var labelBuf [16]string
	labels := labelBuf[:0]
	for l := range p.Labels {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	w.u16(uint16(len(labels)))
	for _, l := range labels {
		w.str(l)
		w.u32(uint32(p.Labels[l]))
	}

	w.u32(uint32(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		idx, ok := opcodeIndex[in.Op.Name]
		if !ok {
			return dst, fmt.Errorf("asm: encode: unknown opcode %q", in.Op.Name)
		}
		w.u16(idx)
		w.reg(in.Dst)
		w.reg(in.Src1)
		w.reg(in.Src2)
		w.reg(in.MemBase)
		w.u64(uint64(in.Imm))
		w.u32(uint32(in.MemDisp))
		w.u32(uint32(in.Target))
		if in.Op.Shape == isa.ShapeBranch {
			w.str(in.Label)
		} else {
			w.u16(0)
		}
	}
	return w.b, nil
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("asm: decode: %s at offset %d", msg, r.off)
	}
}
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("truncated input")
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}
func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	return string(b)
}
func (r *reader) reg() isa.Reg {
	kind := isa.RegKind(r.u8())
	idx := r.u8()
	switch kind {
	case isa.RegNone:
		return isa.NoReg
	case isa.RegGPR:
		if idx >= isa.NumGPR {
			r.fail("bad GPR index")
			return isa.NoReg
		}
	case isa.RegXMM:
		if idx >= isa.NumXMM {
			r.fail("bad XMM index")
			return isa.NoReg
		}
	default:
		r.fail("bad register kind")
		return isa.NoReg
	}
	return isa.Reg{Kind: kind, Index: idx}
}

// Decode deserialises a program produced by Encode.
func Decode(b []byte) (*Program, error) {
	r := &reader{b: b}
	if string(r.take(4)) != magic {
		return nil, fmt.Errorf("asm: decode: bad magic")
	}
	p := New(r.str())
	p.MemBytes = int(r.u32())
	ninit := int(r.u16())
	for i := 0; i < ninit && r.err == nil; i++ {
		reg := r.reg()
		v := isa.Value{Lo: r.u64(), Hi: r.u64()}
		if r.err == nil {
			if !reg.Valid() {
				r.fail("init entry names no register")
				break
			}
			p.InitRegs[reg] = v
		}
	}
	nlabel := int(r.u16())
	for i := 0; i < nlabel && r.err == nil; i++ {
		name := r.str()
		idx := int(r.u32())
		p.Labels[name] = idx
	}
	ncode := int(r.u32())
	for i := 0; i < ncode && r.err == nil; i++ {
		opIdx := int(r.u16())
		if opIdx >= len(opcodeSlice) {
			r.fail("bad opcode index")
			break
		}
		in := isa.Instruction{Op: opcodeSlice[opIdx]}
		in.Dst = r.reg()
		in.Src1 = r.reg()
		in.Src2 = r.reg()
		in.MemBase = r.reg()
		in.Imm = int64(r.u64())
		in.MemDisp = int32(r.u32())
		in.Target = int(r.u32())
		if in.Label = r.str(); in.Label != "" && in.Op.Shape != isa.ShapeBranch {
			r.fail("label on a non-branch instruction") // Encode would drop it
			break
		}
		p.Code = append(p.Code, in)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("asm: decode: %d trailing bytes", len(b)-r.off)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
