//go:build !purego

#include "textflag.h"

// The three row kernels of simd.go in AVX2, four float64 lanes per
// register. Every element receives the scalar loop's operations in the
// scalar loop's order: one VMULPD (one rounding) for each product, then one
// VADDPD (one rounding) for each addition. There is no fused multiply-add
// here, by rule: it would skip the product's rounding and change bits. The
// tails run the same two operations on one lane with the VEX scalar forms.
// Only VEX encodings appear (mixing legacy SSE with VEX costs a state
// transition), and VZEROUPPER runs before every RET.

// func addAVX2(d, s []float64)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ s_len+32(FP), CX

add16:
	CMPQ CX, $16
	JLT  add4
	VMOVUPD 0(DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VADDPD  0(SI), Y1, Y1
	VADDPD  32(SI), Y2, Y2
	VADDPD  64(SI), Y3, Y3
	VADDPD  96(SI), Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ CX, $4
	JLT  add1
	VMOVUPD 0(DI), Y1
	VADDPD  0(SI), Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ CX, CX
	JEQ   addDone
	VMOVSD 0(DI), X1
	VADDSD 0(SI), X1, X1
	VMOVSD X1, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func axpyAVX2(d, s []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         d_base+0(FP), DI
	MOVQ         s_base+24(FP), SI
	MOVQ         s_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0

axpy16:
	CMPQ CX, $16
	JLT  axpy4
	VMULPD  0(SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VADDPD  0(DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ CX, $4
	JLT  axpy1
	VMULPD  0(SI), Y0, Y1
	VADDPD  0(DI), Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ CX, CX
	JEQ   axpyDone
	VMULSD 0(SI), X0, X1
	VADDSD 0(DI), X1, X1
	VMOVSD X1, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET

// func axpy4AVX2(d, r0, r1, r2, r3 []float64, w0, w1, w2, w3 float64)
//
// d[i] = d[i] + w0*r0[i] + w1*r1[i] + w2*r2[i] + w3*r3[i], the four adds
// left to right, as the Go expression evaluates them.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD w0+120(FP), Y0
	VBROADCASTSD w1+128(FP), Y1
	VBROADCASTSD w2+136(FP), Y2
	VBROADCASTSD w3+144(FP), Y3
	XORQ         AX, AX

quad8:
	CMPQ CX, $8
	JLT  quad4
	VMOVUPD 0(DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  0(R8)(AX*8), Y0, Y6
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  0(R9)(AX*8), Y1, Y6
	VMULPD  32(R9)(AX*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  0(R10)(AX*8), Y2, Y6
	VMULPD  32(R10)(AX*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  0(R11)(AX*8), Y3, Y6
	VMULPD  32(R11)(AX*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, 0(DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JMP     quad8

quad4:
	CMPQ CX, $4
	JLT  quad1
	VMOVUPD 0(DI)(AX*8), Y4
	VMULPD  0(R8)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  0(R9)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  0(R10)(AX*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  0(R11)(AX*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, 0(DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JMP     quad4

quad1:
	TESTQ CX, CX
	JEQ   quadDone
	VMOVSD 0(DI)(AX*8), X4
	VMULSD 0(R8)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD 0(R9)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD 0(R10)(AX*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD 0(R11)(AX*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, 0(DI)(AX*8)
	INCQ   AX
	DECQ   CX
	JMP    quad1

quadDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
