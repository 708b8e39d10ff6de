//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 kernels for the batch replay hot paths. Bit-identity contract:
// every SIMD slot executes the pure-Go kernel's floating-point
// operations in the same order — VMULPD followed by VSUBPD or VADDPD,
// never VFMADD — so each lane's result is identical to the scalar
// kernel's at the bit level.
// R14/R15 are deliberately unused (g register / dynlink scratch).

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fusedStepAVX2(a *fusedArgs)
//
// n whole exact steps of one 8-lane group (TransientBatch.
// StepTraceBatch). The group scratch at R8 holds one 64-byte row per
// state value — lanes 0–3 in its low 32 bytes, lanes 4–7 in its high
// 32 — and every record names rows by byte offset (fused.go). Each row
// is carried as two ymm chains. Per step:
//
//	drive:   [ref] = src·[mul] / [div] + [add]
//	zero:    every b row and the dump row
//	stamps:  C, L, V and I records in element order
//	forward: x[i] = b[perm[i]] − Σ val·x[col]
//	back:    x[i] = (x[i] − Σ val·x[col]) / diag[i]
//	         (each product subtracted in turn, in entry order)
//	time:    [time] += h
//	caps:    v' = x[a] − x[b]; i = g·(v' − v) − i; v = v'
//	inds:    indI = x[br]
//	record:  dst[k][s] = [die] slot k
//
// Registers: DI the argument block, R8 the scratch, R12 n·8, R13 s·8,
// SI the record cursor, CX/DX countdowns, BX the entry cursor, AX
// offsets and pointers, Y14 h and Y15 +0.
TEXT ·fusedStepAVX2(SB), NOSPLIT, $0-8
	MOVQ  a+0(FP), DI
	MOVQ  0(DI), R8
	MOVQ  136(DI), R12
	SHLQ  $3, R12
	XORQ  R13, R13
	VXORPD Y15, Y15, Y15
	VBROADCASTSD 128(DI), Y14

step:
	CMPQ  R13, R12
	JGE   done

	// Drive: slot k reads src[k][s].
	MOVQ  144(DI), AX
	VMOVSD (AX)(R13*1), X0
	MOVQ  152(DI), AX
	VMOVHPD (AX)(R13*1), X0, X0
	MOVQ  160(DI), AX
	VMOVSD (AX)(R13*1), X1
	MOVQ  168(DI), AX
	VMOVHPD (AX)(R13*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	MOVQ  176(DI), AX
	VMOVSD (AX)(R13*1), X2
	MOVQ  184(DI), AX
	VMOVHPD (AX)(R13*1), X2, X2
	MOVQ  192(DI), AX
	VMOVSD (AX)(R13*1), X3
	MOVQ  200(DI), AX
	VMOVHPD (AX)(R13*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	MOVQ  104(DI), AX       // mul row; div, add follow
	VMULPD (R8)(AX*1), Y0, Y0
	VMULPD 32(R8)(AX*1), Y2, Y2
	VDIVPD 64(R8)(AX*1), Y0, Y0
	VDIVPD 96(R8)(AX*1), Y2, Y2
	VADDPD 128(R8)(AX*1), Y0, Y0
	VADDPD 160(R8)(AX*1), Y2, Y2
	MOVQ  96(DI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y2, 32(R8)(AX*1)

	// Zero b and the dump row.
	MOVQ  80(DI), AX
	MOVQ  88(DI), CX
zero:
	VMOVUPD Y15, (R8)(AX*1)
	VMOVUPD Y15, 32(R8)(AX*1)
	ADDQ  $64, AX
	CMPQ  AX, CX
	JLT   zero

	// Stamps: {kind, g, a, b, c, d}, 48 bytes.
	MOVQ  8(DI), SI
	MOVQ  16(DI), CX
	TESTQ CX, CX
	JE    forward
stamp:
	MOVQ  (SI), AX
	CMPQ  AX, $1
	JEQ   stampC
	CMPQ  AX, $2
	JEQ   stampL
	CMPQ  AX, $3
	JEQ   stampV
	// I: [c] −= [a]; [d] += [a]
	MOVQ  16(SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  32(SI), AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VSUBPD Y0, Y2, Y2
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	MOVQ  40(SI), AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VADDPD Y0, Y2, Y2
	VADDPD Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	JMP   stampnext
stampC:
	// ieq = g·[a] + [b]; [c] += ieq; [d] −= ieq
	VBROADCASTSD 8(SI), Y4
	MOVQ  16(SI), AX
	VMULPD (R8)(AX*1), Y4, Y0
	VMULPD 32(R8)(AX*1), Y4, Y1
	MOVQ  24(SI), AX
	VADDPD (R8)(AX*1), Y0, Y0
	VADDPD 32(R8)(AX*1), Y1, Y1
	MOVQ  32(SI), AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VADDPD Y0, Y2, Y2
	VADDPD Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	MOVQ  40(SI), AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VSUBPD Y0, Y2, Y2
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	JMP   stampnext
stampL:
	// [d] = g·[a] − ([b] − [c]), g = −2L/h
	VBROADCASTSD 8(SI), Y4
	MOVQ  16(SI), AX
	VMULPD (R8)(AX*1), Y4, Y0
	VMULPD 32(R8)(AX*1), Y4, Y1
	MOVQ  24(SI), AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	MOVQ  32(SI), AX
	VSUBPD (R8)(AX*1), Y2, Y2
	VSUBPD 32(R8)(AX*1), Y3, Y3
	VSUBPD Y2, Y0, Y0
	VSUBPD Y3, Y1, Y1
	MOVQ  40(SI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	JMP   stampnext
stampV:
	// [d] = [a]
	MOVQ  16(SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  40(SI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
stampnext:
	ADDQ  $48, SI
	DECQ  CX
	JNE   stamp

	// Substitution rows: {src, dst, n, diag}, 32 bytes, walking the
	// entries {off, val} from BX in order.
forward:
	MOVQ  24(DI), SI
	MOVQ  40(DI), BX
	MOVQ  32(DI), DX
fwdrow:
	MOVQ  (SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  16(SI), CX
	TESTQ CX, CX
	JE    fwdstore
fwdent:
	MOVQ  (BX), AX
	VBROADCASTSD 8(BX), Y2
	VMULPD (R8)(AX*1), Y2, Y3
	VMULPD 32(R8)(AX*1), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	ADDQ  $16, BX
	DECQ  CX
	JNE   fwdent
fwdstore:
	MOVQ  8(SI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	ADDQ  $32, SI
	DECQ  DX
	JNE   fwdrow

	MOVQ  32(DI), DX
backrow:
	MOVQ  (SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  16(SI), CX
	TESTQ CX, CX
	JE    backdiv
backent:
	MOVQ  (BX), AX
	VBROADCASTSD 8(BX), Y2
	VMULPD (R8)(AX*1), Y2, Y3
	VMULPD 32(R8)(AX*1), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	ADDQ  $16, BX
	DECQ  CX
	JNE   backent
backdiv:
	VBROADCASTSD 24(SI), Y5
	VDIVPD Y5, Y0, Y0
	VDIVPD Y5, Y1, Y1
	MOVQ  8(SI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	ADDQ  $32, SI
	DECQ  DX
	JNE   backrow

	// time += h
	MOVQ  112(DI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	VADDPD Y14, Y0, Y0
	VADDPD Y14, Y1, Y1
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)

	// Capacitor histories: {g, xa, xb, v, i}, 40 bytes.
	MOVQ  48(DI), SI
	MOVQ  56(DI), CX
	TESTQ CX, CX
	JE    inductors
capacitor:
	MOVQ  8(SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  16(SI), AX
	VSUBPD (R8)(AX*1), Y0, Y0   // v' = x[a] − x[b]
	VSUBPD 32(R8)(AX*1), Y1, Y1
	MOVQ  24(SI), AX
	VSUBPD (R8)(AX*1), Y0, Y2   // v' − v
	VSUBPD 32(R8)(AX*1), Y1, Y3
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	VBROADCASTSD (SI), Y4
	VMULPD Y2, Y4, Y2           // g·(v' − v)
	VMULPD Y3, Y4, Y3
	MOVQ  32(SI), AX
	VSUBPD (R8)(AX*1), Y2, Y2   // − i
	VSUBPD 32(R8)(AX*1), Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	ADDQ  $40, SI
	DECQ  CX
	JNE   capacitor

	// Inductor histories: {dst, src}, 16 bytes.
inductors:
	MOVQ  64(DI), SI
	MOVQ  72(DI), CX
	TESTQ CX, CX
	JE    record
inductor:
	MOVQ  8(SI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	MOVQ  (SI), AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	ADDQ  $16, SI
	DECQ  CX
	JNE   inductor

	// Record: slot k writes dst[k][s].
record:
	MOVQ  120(DI), AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	MOVQ  208(DI), AX
	VMOVSD X0, (AX)(R13*1)
	MOVQ  216(DI), AX
	VMOVHPD X0, (AX)(R13*1)
	MOVQ  224(DI), AX
	VMOVSD X2, (AX)(R13*1)
	MOVQ  232(DI), AX
	VMOVHPD X2, (AX)(R13*1)
	MOVQ  240(DI), AX
	VMOVSD X1, (AX)(R13*1)
	MOVQ  248(DI), AX
	VMOVHPD X1, (AX)(R13*1)
	MOVQ  256(DI), AX
	VMOVSD X3, (AX)(R13*1)
	MOVQ  264(DI), AX
	VMOVHPD X3, (AX)(R13*1)

	ADDQ  $8, R13
	JMP   step

done:
	VZEROUPPER
	RET

// func romStep4AVX2(a *romStep4Args)
//
// Four ROM lanes per step: SIMD slot k holds lane l+k, whose modal
// coordinates sit at consecutive addresses in the lane-minor SoA
// store, so modal rows load and store as whole ymm vectors. Per slot
// the recurrence is romStepKernel's verbatim:
//
//	ut  = src[s] * rmul
//	acc = vstar + du*ut
//	pairs:   acc += c0*m0 + c1*m1
//	         mu0' = al*m0 + be*m1 + h0*ut
//	         mu1' = al*m1 − be*m0 + h1*ut
//	singles: acc += c*m0
//	         mu'  = al*m0 + h*ut
//	dst[s] = acc
TEXT ·romStep4AVX2(SB), NOSPLIT, $0-8
	MOVQ  a+0(FP), DI
	MOVQ  56(DI), R10       // muStride (bytes)
	VBROADCASTSD 32(DI), Y9 // du
	MOVQ  40(DI), AX
	VMOVUPD (AX), Y10       // vstar, 4 lanes
	VMOVUPD 128(DI), Y8     // rmul, 4 lanes
	MOVQ  160(DI), R13
	SHLQ  $3, R13           // n*8
	XORQ  R11, R11          // s*8
romstep:
	CMPQ  R11, R13
	JGE   romdone
	MOVQ  96(DI), AX        // src0
	VMOVSD (AX)(R11*1), X0
	MOVQ  104(DI), AX       // src1
	VMOVHPD (AX)(R11*1), X0, X0
	MOVQ  112(DI), AX       // src2
	VMOVSD (AX)(R11*1), X1
	MOVQ  120(DI), AX       // src3
	VMOVHPD (AX)(R11*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMULPD Y8, Y0, Y0       // ut = src * rmul
	VMULPD Y9, Y0, Y1
	VADDPD Y10, Y1, Y1      // acc = vstar + du*ut
	MOVQ  48(DI), BX        // mu column base (section offset 0)
	MOVQ  0(DI), SI         // pairs
	MOVQ  8(DI), CX
	TESTQ CX, CX
	JE    romsingles
rompair:
	VMOVUPD (BX), Y2        // m0
	VMOVUPD (BX)(R10*1), Y3 // m1
	VBROADCASTSD 32(SI), Y4 // c0
	VBROADCASTSD 40(SI), Y5 // c1
	VMULPD Y2, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD Y5, Y4, Y4       // c0*m0 + c1*m1
	VADDPD Y4, Y1, Y1       // acc +=
	VBROADCASTSD 0(SI), Y4  // al
	VBROADCASTSD 8(SI), Y5  // be
	VBROADCASTSD 16(SI), Y6 // h0
	VBROADCASTSD 24(SI), Y7 // h1
	VMULPD Y2, Y4, Y11      // al*m0
	VMULPD Y3, Y5, Y12      // be*m1
	VADDPD Y12, Y11, Y11
	VMULPD Y0, Y6, Y12      // h0*ut
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)       // mu0'
	VMULPD Y3, Y4, Y11      // al*m1
	VMULPD Y2, Y5, Y12      // be*m0
	VSUBPD Y12, Y11, Y11
	VMULPD Y0, Y7, Y12      // h1*ut
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)(R10*1) // mu1'
	LEAQ  (BX)(R10*2), BX
	ADDQ  $48, SI
	DECQ  CX
	JNE   rompair
romsingles:
	MOVQ  16(DI), SI        // singles
	MOVQ  24(DI), CX
	TESTQ CX, CX
	JE    romout
romsingle:
	VMOVUPD (BX), Y2        // m0
	VBROADCASTSD 16(SI), Y4 // c
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1       // acc += c*m0
	VBROADCASTSD 0(SI), Y4  // al
	VBROADCASTSD 8(SI), Y5  // h
	VMULPD Y2, Y4, Y11
	VMULPD Y0, Y5, Y12
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)       // mu'
	ADDQ  R10, BX
	ADDQ  $24, SI
	DECQ  CX
	JNE   romsingle
romout:
	VEXTRACTF128 $1, Y1, X2
	MOVQ  64(DI), AX        // dst0
	VMOVSD X1, (AX)(R11*1)
	MOVQ  72(DI), AX        // dst1
	VMOVHPD X1, (AX)(R11*1)
	MOVQ  80(DI), AX        // dst2
	VMOVSD X2, (AX)(R11*1)
	MOVQ  88(DI), AX        // dst3
	VMOVHPD X2, (AX)(R11*1)
	ADDQ  $8, R11
	JMP   romstep
romdone:
	VZEROUPPER
	RET
