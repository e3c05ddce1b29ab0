#include "textflag.h"

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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func scaledAVX512(dst, x *float64, n int, f, c float64, add bool)
//
// Eight lanes per step over n (a multiple of 8, at least 8) elements:
// t = x·c, then t·f, then t + dst when add is set. Each instruction keeps
// the Go loop's first operand first, so even a NaN meeting a NaN gives
// the same payload.
TEXT ·scaledAVX512(SB), NOSPLIT, $0-41
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD f+24(FP), Z30
	VBROADCASTSD c+32(FP), Z31
	MOVBLZX      add+40(FP), AX
	TESTQ        AX, AX
	JNZ          accumulate

	PCALIGN $64

set:
	VMOVUPD (SI), Z0
	VMULPD  Z31, Z0, Z0
	VMULPD  Z30, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     set
	VZEROUPPER
	RET

	PCALIGN $64

accumulate:
	VMOVUPD (SI), Z0
	VMULPD  Z31, Z0, Z0
	VMULPD  Z30, Z0, Z0
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     accumulate
	VZEROUPPER
	RET

// The three kernels below run the k+1 reductions of one skip-gram example
// side by side, each in its Go loop's association: Dot's and Norm2Sq's
// four lanes over 4-element strides, combined as (s0+s1)+(s2+s3), and
// AXPY's element-by-element accumulation in row order. The operands of
// each single add or multiply may come in either order: for operands
// that are not NaN, IEEE addition and multiplication are commutative bit
// for bit, and any NaN along the way makes the result NaN, which the Go
// callers recompute with the Go loop (a NaN's payload depends on the
// operand order, and the compiled Go loops do not keep one order across
// build modes).

// func dotRowsAVX512(out *[8]float64, x *float64, rows *[8]*float64, pairs, n int)
//
// Dot(rows[t], x) over the first n (a multiple of 4, at least 4) elements
// for the first 2·pairs rows (1 ≤ pairs ≤ 4), each into out[t] as
// (s0+s1)+(s2+s3); the caller adds the tail. Rows go two to a register,
// Dot's four lanes in each half, one register per pair (Z0–Z3).
TEXT ·dotRowsAVX512(SB), NOSPLIT, $0-40
	MOVQ   rows+16(FP), AX
	MOVQ   0(AX), BX
	MOVQ   8(AX), DX
	MOVQ   16(AX), R8
	MOVQ   24(AX), R9
	MOVQ   32(AX), R10
	MOVQ   40(AX), R11
	MOVQ   48(AX), R12
	MOVQ   56(AX), R13
	MOVQ   x+8(FP), SI
	MOVQ   pairs+24(FP), DI
	MOVQ   n+32(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	PCALIGN $64

dotstep:
	VBROADCASTF64X4 (SI)(AX*1), Z8
	VMOVUPD         (BX)(AX*1), Y9
	VINSERTF64X4    $1, (DX)(AX*1), Z9, Z9
	VMULPD          Z9, Z8, Z9
	VADDPD          Z9, Z0, Z0
	CMPQ            DI, $2
	JLT             dotnext
	VMOVUPD         (R8)(AX*1), Y10
	VINSERTF64X4    $1, (R9)(AX*1), Z10, Z10
	VMULPD          Z10, Z8, Z10
	VADDPD          Z10, Z1, Z1
	CMPQ            DI, $3
	JLT             dotnext
	VMOVUPD         (R10)(AX*1), Y11
	VINSERTF64X4    $1, (R11)(AX*1), Z11, Z11
	VMULPD          Z11, Z8, Z11
	VADDPD          Z11, Z2, Z2
	CMPQ            DI, $4
	JLT             dotnext
	VMOVUPD         (R12)(AX*1), Y12
	VINSERTF64X4    $1, (R13)(AX*1), Z12, Z12
	VMULPD          Z12, Z8, Z12
	VADDPD          Z12, Z3, Z3

dotnext:
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  dotstep

	// (s0+s1)+(s2+s3) into lanes 0 and 4.
	VPERMILPD $0x55, Z0, Z8
	VPERMILPD $0x55, Z1, Z9
	VPERMILPD $0x55, Z2, Z10
	VPERMILPD $0x55, Z3, Z11
	VADDPD    Z8, Z0, Z0
	VADDPD    Z9, Z1, Z1
	VADDPD    Z10, Z2, Z2
	VADDPD    Z11, Z3, Z3
	VPERMPD   $2, Z0, Z8
	VPERMPD   $2, Z1, Z9
	VPERMPD   $2, Z2, Z10
	VPERMPD   $2, Z3, Z11
	VADDPD    Z8, Z0, Z0
	VADDPD    Z9, Z1, Z1
	VADDPD    Z10, Z2, Z2
	VADDPD    Z11, Z3, Z3

	MOVQ        $0x11, AX
	KMOVW       AX, K1
	MOVQ        out+0(FP), DI
	VCOMPRESSPD Z0, K1, (DI)
	VCOMPRESSPD Z1, K1, 16(DI)
	VCOMPRESSPD Z2, K1, 32(DI)
	VCOMPRESSPD Z3, K1, 48(DI)
	VZEROUPPER
	RET

// func scaledNorm2SqAVX512(out, coef *[8]float64, x *float64, n int)
//
// ScaledNorm2Sq(coef[t], x) over the first n (a multiple of 4, at least
// 4) elements, for all eight t at once, into out[t] as (s0+s1)+(s2+s3);
// the caller adds the tail. Lane t holds coefficient t, and Z0–Z3 are the
// four lanes s0–s3: for each element, x[d] is broadcast, v = x[d]·c and
// s = s + v·v.
TEXT ·scaledNorm2SqAVX512(SB), NOSPLIT, $0-32
	MOVQ    coef+8(FP), AX
	VMOVUPD (AX), Z8
	MOVQ    x+16(FP), SI
	MOVQ    n+24(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3

	PCALIGN $64

normstep:
	VBROADCASTSD (SI)(AX*1), Z4
	VBROADCASTSD 8(SI)(AX*1), Z5
	VBROADCASTSD 16(SI)(AX*1), Z6
	VBROADCASTSD 24(SI)(AX*1), Z7
	VMULPD       Z8, Z4, Z4
	VMULPD       Z8, Z5, Z5
	VMULPD       Z8, Z6, Z6
	VMULPD       Z8, Z7, Z7
	VMULPD       Z4, Z4, Z4
	VMULPD       Z5, Z5, Z5
	VMULPD       Z6, Z6, Z6
	VMULPD       Z7, Z7, Z7
	VADDPD       Z4, Z0, Z0
	VADDPD       Z5, Z1, Z1
	VADDPD       Z6, Z2, Z2
	VADDPD       Z7, Z3, Z3
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          normstep

	VADDPD  Z1, Z0, Z0
	VADDPD  Z3, Z2, Z2
	VADDPD  Z2, Z0, Z0
	MOVQ    out+0(FP), DI
	VMOVUPD Z0, (DI)
	VZEROUPPER
	RET

// func axpyRowsAVX512(dst, coef *float64, rows *[]float64, k, n int) float64
//
// One pass over the first n (a multiple of 4, at least 4) elements,
// sixteen at a time as two independent eight-lane blocks: acc = 0, then
// acc = rows[t]·coef[t] + acc for t = 0..k−1 (Zero and k AXPYs, element
// by element), stored to dst, and acc·acc added into Norm2Sq's four lanes
// (Y0) a half block at a time, in element order. It returns
// (s0+s1)+(s2+s3); the caller adds the tail.
//
// The last step covers the n%16 elements left through the masks K4 (low
// block) and K5 (high block): its loads and products are zero-masked, so
// a masked-out lane adds +0 to the norm lanes, which leaves them as they
// are (each is +0 or above, or NaN). k may be 0.
TEXT ·axpyRowsAVX512(SB), NOSPLIT, $0-48
	MOVQ     dst+0(FP), DI
	MOVQ     coef+8(FP), SI
	MOVQ     rows+16(FP), R8
	MOVQ     k+24(FP), R9
	MOVQ     n+32(FP), CX
	MOVQ     CX, R12
	ANDQ     $15, CX
	SUBQ     CX, R12
	SHLQ     $3, R12
	MOVL     $1, AX
	SHLL     CX, AX
	DECL     AX
	KMOVW    AX, K4
	KSHIFTRW $8, K4, K5
	MOVQ     n+32(FP), CX
	SHLQ     $3, CX
	XORQ     DX, DX
	VXORPD   Y0, Y0, Y0
	KXNORW   K2, K2, K2
	KXNORW   K3, K3, K3

axpystep:
	CMPQ  DX, R12
	JLT   axpyfull
	KMOVW K4, K2
	KMOVW K5, K3

axpyfull:
	VPXORQ Z2, Z2, Z2
	VPXORQ Z4, Z4, Z4
	MOVQ   R8, R10
	XORQ   BX, BX
	CMPQ   BX, R9
	JGE    axpystore

	PCALIGN $64

axpyrow:
	MOVQ         (R10), R11
	VBROADCASTSD (SI)(BX*8), Z7
	VMOVUPD.Z    (R11)(DX*1), K2, Z3
	VMOVUPD.Z    64(R11)(DX*1), K3, Z5
	VMULPD.Z     Z7, Z3, K2, Z3
	VMULPD.Z     Z7, Z5, K3, Z5
	VADDPD       Z2, Z3, Z2
	VADDPD       Z4, Z5, Z4
	ADDQ         $24, R10
	INCQ         BX
	CMPQ         BX, R9
	JLT          axpyrow

axpystore:
	VMOVUPD       Z2, K2, (DI)(DX*1)
	VMOVUPD       Z4, K3, 64(DI)(DX*1)
	VMULPD        Z2, Z2, Z2
	VMULPD        Z4, Z4, Z4
	VEXTRACTF64X4 $1, Z2, Y3
	VEXTRACTF64X4 $1, Z4, Y5
	VADDPD        Y2, Y0, Y0
	VADDPD        Y3, Y0, Y0
	VADDPD        Y4, Y0, Y0
	VADDPD        Y5, Y0, Y0
	ADDQ          $128, DX
	CMPQ          DX, CX
	JLT           axpystep

	VEXTRACTF128 $1, Y0, X1
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0
	VUNPCKHPD    X1, X1, X3
	VADDSD       X3, X1, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, ret+40(FP)
	VZEROUPPER
	RET
