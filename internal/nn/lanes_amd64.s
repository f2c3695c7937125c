//go:build !purego

#include "textflag.h"

// The four-lane kernels of MADE: the lockstep ancestral sampler's two
// (made_sample.go) and the weighted backward's dW2 update (made_batch.go).
//
// In the sampler's kernels lane r is sample r of a group of four; the hidden
// pre-activations a are interleaved, a[4k+r] being unit k of sample r. Each
// lane receives its scalar loop's operations in that loop's order: one
// rounded VMULPD for each product and one rounded VADDPD for each add, no
// fused multiply-add. A term the scalar loop skips is added as +0 (the
// product ANDed with a zero mask); made_sample.go argues why that cannot
// change a sampled bit. VEX encodings only, VZEROUPPER before RET.

DATA half<>+0(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

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

// func addW2AVX2(d, dz2 []float64, ak, w float64)
//
// For j < len(dz2): d[j] += w*(0.5*(dz2[j]*ak)), the Go loop addW2Go's
// operations in its order: three rounded VMULPDs (dz2*ak, then 0.5 times
// that, then w times that), then one rounded VADDPD. Lanes are four
// consecutive j; the tail runs the same four operations one element at a
// time in the VEX scalar forms. The 0.5 is broadcast from memory in its VEX
// form, like a and w.
TEXT ·addW2AVX2(SB), NOSPLIT, $0-64
	MOVQ         d_base+0(FP), DI
	MOVQ         dz2_base+24(FP), SI
	MOVQ         dz2_len+32(FP), CX
	VBROADCASTSD ak+48(FP), Y0
	VBROADCASTSD w+56(FP), Y1
	VBROADCASTSD half<>(SB), Y2

w2x8:
	CMPQ CX, $8
	JLT  w2x4
	VMULPD  0(SI), Y0, Y3
	VMULPD  32(SI), Y0, Y4
	VMULPD  Y3, Y2, Y3
	VMULPD  Y4, Y2, Y4
	VMULPD  Y3, Y1, Y3
	VMULPD  Y4, Y1, Y4
	VADDPD  0(DI), Y3, Y3
	VADDPD  32(DI), Y4, Y4
	VMOVUPD Y3, 0(DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     w2x8

w2x4:
	CMPQ CX, $4
	JLT  w2x1
	VMULPD  0(SI), Y0, Y3
	VMULPD  Y3, Y2, Y3
	VMULPD  Y3, Y1, Y3
	VADDPD  0(DI), Y3, Y3
	VMOVUPD Y3, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

w2x1:
	TESTQ CX, CX
	JEQ   w2Done
	VMULSD 0(SI), X0, X3
	VMULSD X3, X2, X3
	VMULSD X3, X1, X3
	VADDSD 0(DI), X3, X3
	VMOVSD X3, 0(DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    w2x1

w2Done:
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
