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
