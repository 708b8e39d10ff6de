//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 kernels for the batch replay hot paths. Bit-identity contract:
// every SIMD slot executes the pure-Go kernel's floating-point
// operations in the same order — VMULPD/VMULSD followed by
// VSUBPD/VSUBSD or VADDPD/VADDSD, never VFMADD — so each lane's
// result is identical to the scalar kernel's at the bit level.
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

// func solveAVX2(b, x *float64, L int, perm *int, lower, upper *[]luEntry, diag *float64, n int)
//
// One whole LU solve over all L lanes of the lane-minor arrays b and x
// (luReal.solveBatch): forward substitution for rows 0..n−1, then back
// substitution for rows n−1..0, each row walking only its nonzero
// entries: lower[i] and upper[i] are slice headers over 16-byte
// {col, val} records, ascending col. For each lane l of row i:
//
//	forward: x[i*L+l] = b[perm[i]*L+l] − Σ_e val·x[col*L+l]
//	back:    x[i*L+l] = (x[i*L+l] − Σ_e val·x[col*L+l]) / diag[i]
//
// Each row sweeps its lanes in 8-lane blocks (two ymm accumulators),
// then a 4-lane block, a 2-lane xmm block and a VEX scalar lane, so
// any width costs at most three sweeps past its 8-lane blocks. Every
// block loads a lane group with the width it was stored with, which
// keeps store-to-load forwarding intact between dependent rows. One
// sweep body serves both passes: R10 selects the pass (0 forward,
// 1 back), i.e. whether the sweep divides and where it returns.
//
// Registers: DI x, R11 row stride L*8, R8 row i, DX source row, R13
// destination row, SI the row's first entry, R9 its entry count, R12
// lane byte offset, BX/CX entry cursor and countdown, AX address
// scratch, Y5 the broadcast diagonal.
TEXT ·solveAVX2(SB), NOSPLIT, $0-64
	MOVQ  x+8(FP), DI
	MOVQ  L+16(FP), R11
	SHLQ  $3, R11         // SoA row stride in bytes
	XORQ  R10, R10        // forward pass
	XORQ  R8, R8          // i = 0
fwdrow:
	CMPQ  R8, n+56(FP)
	JGE   backstart
	MOVQ  perm+24(FP), AX
	MOVQ  (AX)(R8*8), DX
	IMULQ R11, DX
	ADDQ  b+0(FP), DX     // DX = &b[perm[i]*L]
	MOVQ  R8, R13
	IMULQ R11, R13
	ADDQ  DI, R13         // R13 = &x[i*L]
	LEAQ  (R8)(R8*2), AX
	SHLQ  $3, AX          // AX = i*24: row i's slice header
	ADDQ  lower+32(FP), AX
	MOVQ  (AX), SI
	MOVQ  8(AX), R9
	JMP   sweep
fwdnext:
	INCQ  R8
	JMP   fwdrow

backstart:
	MOVQ  $1, R10         // back pass
	MOVQ  n+56(FP), R8
backrow:
	DECQ  R8
	JLT   done
	MOVQ  R8, R13
	IMULQ R11, R13
	ADDQ  DI, R13         // R13 = &x[i*L]
	MOVQ  R13, DX         // rows update in place
	MOVQ  diag+48(FP), AX
	VBROADCASTSD (AX)(R8*8), Y5
	LEAQ  (R8)(R8*2), AX
	SHLQ  $3, AX
	ADDQ  upper+40(FP), AX
	MOVQ  (AX), SI
	MOVQ  8(AX), R9
	JMP   sweep

// One row over every lane: DX source row, R13 destination row, SI/R9
// the entries, Y5 the divisor when R10 = 1.
sweep:
	XORQ  R12, R12        // lane byte offset
sweep8:
	MOVQ  R11, AX
	SUBQ  R12, AX
	CMPQ  AX, $64
	JLT   sweep4
	VMOVUPD (DX)(R12*1), Y0
	VMOVUPD 32(DX)(R12*1), Y1
	MOVQ  SI, BX
	MOVQ  R9, CX
	TESTQ CX, CX
	JE    sweep8out
sweep8e:
	MOVQ  (BX), AX
	IMULQ R11, AX
	ADDQ  R12, AX         // AX = col*L*8 + l*8
	VBROADCASTSD 8(BX), Y2
	VMULPD (DI)(AX*1), Y2, Y3
	VMULPD 32(DI)(AX*1), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	ADDQ  $16, BX
	DECQ  CX
	JNE   sweep8e
sweep8out:
	TESTQ R10, R10
	JE    sweep8st
	VDIVPD Y5, Y0, Y0
	VDIVPD Y5, Y1, Y1
sweep8st:
	VMOVUPD Y0, (R13)(R12*1)
	VMOVUPD Y1, 32(R13)(R12*1)
	ADDQ  $64, R12
	JMP   sweep8
sweep4:
	CMPQ  AX, $32
	JLT   sweep2
	VMOVUPD (DX)(R12*1), Y0
	MOVQ  SI, BX
	MOVQ  R9, CX
	TESTQ CX, CX
	JE    sweep4out
sweep4e:
	MOVQ  (BX), AX
	IMULQ R11, AX
	ADDQ  R12, AX
	VBROADCASTSD 8(BX), Y2
	VMULPD (DI)(AX*1), Y2, Y3
	VSUBPD Y3, Y0, Y0
	ADDQ  $16, BX
	DECQ  CX
	JNE   sweep4e
sweep4out:
	TESTQ R10, R10
	JE    sweep4st
	VDIVPD Y5, Y0, Y0
sweep4st:
	VMOVUPD Y0, (R13)(R12*1)
	ADDQ  $32, R12
sweep2:
	MOVQ  R11, AX
	SUBQ  R12, AX
	CMPQ  AX, $16
	JLT   sweep1
	VMOVUPD (DX)(R12*1), X0
	MOVQ  SI, BX
	MOVQ  R9, CX
	TESTQ CX, CX
	JE    sweep2out
sweep2e:
	MOVQ  (BX), AX
	IMULQ R11, AX
	ADDQ  R12, AX
	VMOVDDUP 8(BX), X2
	VMULPD (DI)(AX*1), X2, X3
	VSUBPD X3, X0, X0
	ADDQ  $16, BX
	DECQ  CX
	JNE   sweep2e
sweep2out:
	TESTQ R10, R10
	JE    sweep2st
	VDIVPD X5, X0, X0
sweep2st:
	VMOVUPD X0, (R13)(R12*1)
	ADDQ  $16, R12
sweep1:
	CMPQ  R12, R11
	JGE   sweepdone
	VMOVSD (DX)(R12*1), X0
	MOVQ  SI, BX
	MOVQ  R9, CX
	TESTQ CX, CX
	JE    sweep1out
sweep1e:
	MOVQ  (BX), AX
	IMULQ R11, AX
	ADDQ  R12, AX
	VMOVSD 8(BX), X2
	VMULSD (DI)(AX*1), X2, X3
	VSUBSD X3, X0, X0
	ADDQ  $16, BX
	DECQ  CX
	JNE   sweep1e
sweep1out:
	TESTQ R10, R10
	JE    sweep1st
	VDIVSD X5, X0, X0
sweep1st:
	VMOVSD X0, (R13)(R12*1)
sweepdone:
	TESTQ R10, R10
	JE    fwdnext
	JMP   backrow

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
