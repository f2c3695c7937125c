//go:build !purego

#include "textflag.h"

// The two four-lane kernels of MADE's lockstep ancestral sampler
// (made_sample.go). Lane r is sample r of a group of four; the hidden
// pre-activations a are interleaved, a[4k+r] being unit k of sample r. Each
// lane receives its scalar loop's operations in that loop's order: one
// rounded VMULPD for each product and one rounded VADDPD for each add, no
// fused multiply-add. A term the scalar loop skips is added as +0 (the
// product ANDed with a zero mask); made_sample.go argues why that cannot
// change a sampled bit. VEX encodings only, VZEROUPPER before RET.

// func cond4AVX2(z *[4]float64, w, a []float64)
//
// For k < len(w), lane r: z[r] += w[k]*a[4k+r] where a[4k+r] > 0, else +0.
TEXT ·cond4AVX2(SB), NOSPLIT, $0-56
	MOVQ   z+0(FP), DI
	MOVQ   w_base+8(FP), SI
	MOVQ   w_len+16(FP), CX
	MOVQ   a_base+32(FP), DX
	VMOVUPD 0(DI), Y0
	VXORPD Y1, Y1, Y1

cond2:
	CMPQ CX, $2
	JLT  cond1
	VMOVUPD      0(DX), Y3
	VMOVUPD      32(DX), Y6
	VBROADCASTSD 0(SI), Y2
	VBROADCASTSD 8(SI), Y5
	VCMPPD       $0x1e, Y1, Y3, Y4 // a > 0: ordered, so NaN is not
	VCMPPD       $0x1e, Y1, Y6, Y7
	VMULPD       Y3, Y2, Y2
	VMULPD       Y6, Y5, Y5
	VANDPD       Y4, Y2, Y2
	VANDPD       Y7, Y5, Y5
	VADDPD       Y2, Y0, Y0
	VADDPD       Y5, Y0, Y0
	ADDQ         $16, SI
	ADDQ         $64, DX
	SUBQ         $2, CX
	JMP          cond2

cond1:
	TESTQ CX, CX
	JEQ   condDone
	VMOVUPD      0(DX), Y3
	VBROADCASTSD 0(SI), Y2
	VCMPPD       $0x1e, Y1, Y3, Y4
	VMULPD       Y3, Y2, Y2
	VANDPD       Y4, Y2, Y2
	VADDPD       Y2, Y0, Y0

condDone:
	VMOVUPD Y0, 0(DI)
	VZEROUPPER
	RET

// func add4MaskedAVX2(a, w []float64, mask *[4]uint64)
//
// For k < len(w), lane r: a[4k+r] += w[k] where mask[r] is all ones, else +0.
TEXT ·add4MaskedAVX2(SB), NOSPLIT, $0-56
	MOVQ    a_base+0(FP), DI
	MOVQ    w_base+24(FP), SI
	MOVQ    w_len+32(FP), CX
	MOVQ    mask+48(FP), DX
	VMOVUPD 0(DX), Y1

add2:
	CMPQ CX, $2
	JLT  add1
	VBROADCASTSD 0(SI), Y2
	VBROADCASTSD 8(SI), Y3
	VANDPD       Y1, Y2, Y2
	VANDPD       Y1, Y3, Y3
	VADDPD       0(DI), Y2, Y2
	VADDPD       32(DI), Y3, Y3
	VMOVUPD      Y2, 0(DI)
	VMOVUPD      Y3, 32(DI)
	ADDQ         $16, SI
	ADDQ         $64, DI
	SUBQ         $2, CX
	JMP          add2

add1:
	TESTQ CX, CX
	JEQ   addDone
	VBROADCASTSD 0(SI), Y2
	VANDPD       Y1, Y2, Y2
	VADDPD       0(DI), Y2, Y2
	VMOVUPD      Y2, 0(DI)

addDone:
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
