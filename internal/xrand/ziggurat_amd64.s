#include "textflag.h"

// laneGolden holds lane·golden for lanes 0–7: lane l of a step reads the
// Weyl value ctr + l·golden.
DATA laneGolden<>+0x00(SB)/8, $0x0000000000000000
DATA laneGolden<>+0x08(SB)/8, $0x9e3779b97f4a7c15
DATA laneGolden<>+0x10(SB)/8, $0x3c6ef372fe94f82a
DATA laneGolden<>+0x18(SB)/8, $0xdaa66d2c7ddf743f
DATA laneGolden<>+0x20(SB)/8, $0x78dde6e5fd29f054
DATA laneGolden<>+0x28(SB)/8, $0x1715609f7c746c69
DATA laneGolden<>+0x30(SB)/8, $0xb54cda58fbbee87e
DATA laneGolden<>+0x38(SB)/8, $0x538454127b096493
GLOBL laneGolden<>(SB), RODATA|NOPTR, $64

// func noisyStepAVX512(dst, grad *float64, n int, ctr uint64, lr, sd float64) (slow uint64)
//
// Eight coordinates per step over n (a multiple of 8, from 8 to 64). Lane
// l of step s is coordinate k = 8s + l, with Weyl value ctr + k·golden.
// It hashes the counter with mix64, reads zigX[j] and zigX[j+1] for the
// layer j = bits & 0xff, forms x = (float64(bits>>11)·2⁻⁵³)·zigX[j], and
// for a lane in its layer's core (x < zigX[j+1]) stores
// dst − ((z·sd + g)·lr) with z = x signed by bit 8: the Go loop's
// operations in its operand order, with no FMA. The other lanes are left
// untouched and returned as bit k of slow.
TEXT ·noisyStepAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), R9
	LEAQ         ·zigX(SB), R8
	VPBROADCASTQ ctr+24(FP), Z0
	VPADDQ       laneGolden<>(SB), Z0, Z0
	VBROADCASTSD lr+32(FP), Z26
	VBROADCASTSD sd+40(FP), Z27
	MOVQ         $0xf1bbcdcbfa53e0a8, AX // 8·golden mod 2⁶⁴
	VPBROADCASTQ AX, Z20
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z21
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z22
	MOVQ         $0xff, AX
	VPBROADCASTQ AX, Z23
	MOVQ         $0x100, AX
	VPBROADCASTQ AX, Z24
	MOVQ         $0x3ca0000000000000, AX // 2⁻⁵³
	VPBROADCASTQ AX, Z25
	XORQ         DX, DX                  // slow lanes
	XORQ         CX, CX                  // first coordinate of the step

step:
	// bits = mix64(ctr)
	VPSRLQ  $30, Z0, Z1
	VPXORQ  Z0, Z1, Z1
	VPMULLQ Z21, Z1, Z1
	VPSRLQ  $27, Z1, Z2
	VPXORQ  Z1, Z2, Z2
	VPMULLQ Z22, Z2, Z2
	VPSRLQ  $31, Z2, Z3
	VPXORQ  Z2, Z3, Z3
	VPADDQ  Z20, Z0, Z0

	// zigX[j] and zigX[j+1]
	VPANDQ     Z23, Z3, Z4
	KXNORB     K1, K1, K1
	VGATHERQPD (R8)(Z4*8), K1, Z5
	KXNORB     K2, K2, K2
	VGATHERQPD 8(R8)(Z4*8), K2, Z6

	// x = (float64(bits>>11)·2⁻⁵³)·zigX[j]; core lanes: x < zigX[j+1]
	VPSRLQ     $11, Z3, Z7
	VCVTUQQ2PD Z7, Z7
	VMULPD     Z25, Z7, Z7
	VMULPD     Z5, Z7, Z7
	VCMPPD     $1, Z6, Z7, K3

	// z = x | (bits&0x100)<<55
	VPANDQ Z24, Z3, Z8
	VPSLLQ $55, Z8, Z8
	VPORQ  Z8, Z7, Z7

	// dst − ((z·sd + g)·lr), stored to the core lanes
	VMULPD  Z27, Z7, Z7
	VADDPD  (SI), Z7, Z7
	VMULPD  Z26, Z7, Z7
	VMOVUPD (DI), Z9
	VSUBPD  Z7, Z9, Z9
	VMOVUPD Z9, K3, (DI)

	KMOVB K3, AX
	NOTL  AX
	ANDL  $0xff, AX
	SHLQ  CX, AX
	ORQ   AX, DX

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $8, CX
	SUBQ $8, R9
	JNZ  step

	MOVQ DX, slow+48(FP)
	VZEROUPPER
	RET
