package asm

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

const sample = `
; resonant loop skeleton
.name demo
.mem 4096
.init xmm0, 0xAAAAAAAAAAAAAAAA, 0xAAAAAAAAAAAAAAAA
.init rcx, 1000
    movimm rcx, 1000
loop:
    vfmadd132pd xmm0, xmm1, xmm2
    mulpd xmm3, xmm4
    load rax, [rbp+16]
    store [rbp-8], rax
    times 4 nop
    dec rcx, rcx
    jnz loop
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q", p.Name)
	}
	if p.MemBytes != 4096 {
		t.Errorf("mem = %d", p.MemBytes)
	}
	if got := len(p.Code); got != 11 {
		t.Errorf("code len = %d, want 11", got)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("label loop = %d, want 1", p.Labels["loop"])
	}
	last := p.Code[len(p.Code)-1]
	if last.Op.Name != "jnz" || last.Target != 1 {
		t.Errorf("branch target = %+v", last)
	}
	v, ok := p.InitRegs[isa.XMM(0)]
	if !ok || v.Lo != 0xAAAAAAAAAAAAAAAA {
		t.Errorf("init xmm0 = %+v ok=%v", v, ok)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate rax, rcx",
		"add rax",
		"add rax, rcx, rdx",
		"load rax, rbp",
		"jnz",
		"jnz nowhere\n",
		".mem lots",
		".init rax",
		"times x nop",
		"dup:\ndup:",
		"bad label:",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	p := MustParse(sample)
	q, err := Parse(p.Text())
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, p.Text())
	}
	if q.Name != p.Name || q.MemBytes != p.MemBytes || len(q.Code) != len(p.Code) {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
	for i := range p.Code {
		if p.Code[i].String() != q.Code[i].String() {
			t.Errorf("instr %d: %q vs %q", i, p.Code[i].String(), q.Code[i].String())
		}
	}
	if !reflect.DeepEqual(p.InitRegs, q.InitRegs) {
		t.Errorf("init regs differ")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := MustParse(sample)
	blob, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Code, q.Code) {
		t.Errorf("code differs after binary round trip")
	}
	if !reflect.DeepEqual(p.Labels, q.Labels) {
		t.Errorf("labels differ")
	}
	if !reflect.DeepEqual(p.InitRegs, q.InitRegs) {
		t.Errorf("init regs differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := MustParse(sample)
	blob, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// randomProgram builds a structurally valid random program for
// property-based round-trip testing.
func randomProgram(rng *rand.Rand) *Program {
	b := NewBuilder("rand")
	b.SetMem(1 << uint(rng.Intn(14)))
	b.InitToggle(rng.Intn(8), rng.Intn(8))
	b.Label("top")
	n := 1 + rng.Intn(40)
	gpr := func() isa.Reg { return isa.GPR(rng.Intn(isa.NumGPR)) }
	xmm := func() isa.Reg { return isa.XMM(rng.Intn(isa.NumXMM)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(11) {
		case 0:
			b.Nop(1 + rng.Intn(3))
		case 1:
			b.RR("add", gpr(), gpr())
		case 2:
			b.RR("mulpd", xmm(), xmm())
		case 3:
			b.RRR("vfmadd132pd", xmm(), xmm(), xmm())
		case 4:
			b.Load("load", gpr(), gpr(), int32(rng.Intn(256))*8)
		case 5:
			b.Store("store", gpr(), int32(rng.Intn(256))*8, gpr())
		case 6:
			// Negative immediates must survive both wire formats.
			b.RI("movimm", gpr(), rng.Int63n(1<<32)-(1<<31))
		case 7:
			b.Barrier(int64(rng.Intn(8)))
		case 8:
			// 128-bit memory ops, with negative displacements.
			b.Load("loadx", xmm(), gpr(), int32(rng.Intn(512))*8-2048)
		case 9:
			b.Store("storex", gpr(), int32(rng.Intn(512))*8-2048, xmm())
		case 10:
			b.RI("shl", gpr(), int64(rng.Intn(64)))
		}
	}
	b.Branch("jnz", "top")
	return b.MustBuild()
}

func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		blob, err := Encode(p)
		if err != nil {
			return false
		}
		q, err := Decode(blob)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p.Code, q.Code) &&
			reflect.DeepEqual(p.InitRegs, q.InitRegs) &&
			p.MemBytes == q.MemBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTextReassembly(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		q, err := Parse(p.Text())
		if err != nil {
			return false
		}
		if len(p.Code) != len(q.Code) {
			return false
		}
		for i := range p.Code {
			if p.Code[i].String() != q.Code[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBuilderForwardBranch(t *testing.T) {
	p, err := NewBuilder("fwd").
		Branch("jmp", "end").
		Nop(3).
		Label("end").
		Nop(1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 4 {
		t.Errorf("forward target = %d, want 4", p.Code[0].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder("bad").Branch("jmp", "nowhere").Build()
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("err = %v", err)
	}
}

func TestBuilderLabelAtEndRejectedAsBranchTarget(t *testing.T) {
	_, err := NewBuilder("end").Nop(1).Label("end").Branch("jmp", "end").Build()
	// Label "end" points past the final instruction once the branch is
	// appended after it... actually the branch is at index 1, label at 1.
	// That is fine. Construct the genuinely-bad case: label after all code.
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	_, err = NewBuilder("bad2").Branch("jmp", "tail").Label("tail").Build()
	if err == nil {
		t.Error("branch to past-the-end label accepted")
	}
}

func TestInstructionMixAndFPFraction(t *testing.T) {
	p := MustParse(sample)
	mix := p.InstructionMix()
	if mix[isa.ClassNOP] != 4 {
		t.Errorf("NOP count = %d, want 4", mix[isa.ClassNOP])
	}
	if mix[isa.ClassFMA] != 1 || mix[isa.ClassFPMul] != 1 {
		t.Errorf("FP counts wrong: %v", mix)
	}
	got := p.FPFraction()
	if got <= 0 || got >= 1 {
		t.Errorf("FP fraction = %v", got)
	}
}

func TestInitToggleAlternates(t *testing.T) {
	p := NewBuilder("tgl").InitToggle(4, 2).Nop(1).MustBuild()
	a, c := isa.MaxToggleValues()
	if p.InitRegs[isa.XMM(0)] != a || p.InitRegs[isa.XMM(1)] != c {
		t.Errorf("xmm toggle seed wrong: %+v", p.InitRegs)
	}
	if isa.ToggleFractionOf(p.InitRegs[isa.XMM(0)], p.InitRegs[isa.XMM(1)]) != 1 {
		t.Error("adjacent xmm seeds are not maximally toggling")
	}
}

func TestListing(t *testing.T) {
	p := MustParse(sample)
	l := p.Listing()
	if !strings.Contains(l, "loop:") {
		t.Error("listing missing label")
	}
	if !strings.Contains(l, "; → 1") {
		t.Errorf("listing missing branch target:\n%s", l)
	}
	if !strings.Contains(l, "vfmadd132pd xmm0, xmm1, xmm2") {
		t.Error("listing missing instruction text")
	}
}

func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("nop\n")
	f.Add("loop:\n jnz loop\n")
	f.Add(".init xmm0, 0x1, 0x2\nmulpd xmm0, xmm1\n")
	f.Add(".name n\n.mem 128\nbarrier 3\nmovimm r8, -9\n")
	f.Add("a:\n times 3 nop\n addpd xmm1, xmm12\n jnz a\n ; tail comment\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		// Anything that parses must validate, re-render, and re-parse —
		// and the emitted text must be a fixed point: parse(emit(p))
		// emits the same bytes again, so emit is canonical.
		if err := p.Validate(); err != nil {
			t.Fatalf("parsed program fails validation: %v", err)
		}
		text := p.Text()
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if err := p2.Validate(); err != nil {
			t.Fatalf("re-parsed program fails validation: %v", err)
		}
		if text2 := p2.Text(); text2 != text {
			t.Fatalf("emit not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
		// The round trip must also preserve semantics, not just text:
		// the canonical binary encodings must match.
		b1, err1 := Encode(p)
		b2, err2 := Encode(p2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("encodability changed across round trip: %v vs %v", err1, err2)
		}
		if err1 == nil && !bytes.Equal(b1, b2) {
			t.Fatalf("binary encoding changed across text round trip\n%s", text)
		}
	})
}

func FuzzDecode(f *testing.F) {
	blob, _ := Encode(MustParse(sample))
	f.Add(blob)
	f.Add([]byte("ADT1"))
	// Seed the corpus with encodings that exercise every operand wire
	// form: barriers, negative immediates and displacements, and the
	// 128-bit memory ops' XMM register kind.
	seeds := []*Program{
		NewBuilder("barrier").Barrier(0).Barrier(63).MustBuild(),
		NewBuilder("negimm").
			RI("movimm", isa.GPR(3), -1).
			RI("movimm", isa.GPR(4), -(1<<40)).
			RI("shl", isa.GPR(3), 63).
			MustBuild(),
		NewBuilder("memx").SetMem(4096).
			Load("loadx", isa.XMM(7), isa.GPR(2), -16).
			Store("storex", isa.GPR(2), 2040, isa.XMM(15)).
			Load("lea", isa.GPR(5), isa.GPR(6), 8).
			MustBuild(),
	}
	for _, p := range seeds {
		enc, err := Encode(p)
		if err != nil {
			f.Fatalf("seed %s: %v", p.Name, err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		// Decoded input may be non-canonical (e.g. unsorted init
		// entries), so the property is semantic: re-encoding reaches a
		// canonical fixed point within one round trip.
		canon, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded program fails re-encode: %v", err)
		}
		p2, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical image fails decode: %v", err)
		}
		canon2, err := Encode(p2)
		if err != nil {
			t.Fatalf("re-encode of canonical image failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form not a fixed point")
		}
		if !reflect.DeepEqual(p.Code, p2.Code) || !reflect.DeepEqual(p.InitRegs, p2.InitRegs) {
			t.Fatalf("semantics changed across canonicalisation")
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	p := MustParse(sample)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	blob, err := Encode(MustParse(sample))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sample); err != nil {
			b.Fatal(err)
		}
	}
}
