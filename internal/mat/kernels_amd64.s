#include "textflag.h"

// Two AVX2 kernels that share one 4-lane exp:
//
//   - expKernel, the batch exp behind expInto;
//   - reweightKernel2, pass 2 of Workspace.Reweight for the 2-column
//     [α, ω] system: the Eq. 15 weights and the weighted normal
//     equations, chunk by chunk.
//
// The exp (EXPY0 below) runs, lane for lane, the operations of the FMA
// path of the runtime's amd64 math.Exp (Shibata's SIMD method from SLEEF,
// src/math/exp_amd64.s): the same constants, the same fused and unfused
// multiplies and adds in the same order, and the same round-to-nearest
// conversion of x·log2(e). Each lane's result is therefore bit-identical
// to math.Exp on that path. It handles only arguments in (−708, 708),
// where the scaling 2ⁿ is a normal number and the scalar code never takes
// its overflow or denormal branch.

// Every constant is replicated across 4 lanes so it can be a 256-bit
// memory operand.
#define SPLAT(off, v) \
	DATA expc<>+(off)(SB)/8, v; \
	DATA expc<>+(off+8)(SB)/8, v; \
	DATA expc<>+(off+16)(SB)/8, v; \
	DATA expc<>+(off+24)(SB)/8, v

SPLAT(0, $1.4426950408889634073599246810018920)                    // log2(e)
SPLAT(32, $0.69314718055966295651160180568695068359375)            // upper half of ln 2
SPLAT(64, $0.28235290563031577122588448175013436025525412068e-12) // lower half of ln 2
SPLAT(96, $0.0625)
SPLAT(128, $2.4801587301587301587e-5)
SPLAT(160, $1.9841269841269841270e-4)
SPLAT(192, $1.3888888888888888889e-3)
SPLAT(224, $8.3333333333333333333e-3)
SPLAT(256, $4.1666666666666666667e-2)
SPLAT(288, $1.6666666666666666667e-1)
SPLAT(320, $0.5)
SPLAT(352, $1.0)
SPLAT(384, $2.0)
SPLAT(416, $-708.0) // lower end of the kernels' range (exclusive)
SPLAT(448, $708.0)  // upper end of the kernels' range (exclusive)
SPLAT(480, $1023)   // exponent bias, as int64
SPLAT(512, $0x8000000000000000) // sign bit
GLOBL expc<>(SB), RODATA|NOPTR, $544

// EXPY0 sets Y0 = exp(Y0) lane by lane, for lanes in (−708, 708). It
// clobbers Y1, Y2 and Y3.
//
// n = round(x·log2(e)); r = (x − n·ln2U − n·ln2L)/16; a Taylor polynomial
// in r by Horner's rule; squared back up four times, y ← y·(y+2), the
// last one fused with +1; then scaled by 2ⁿ, built from its exponent bits.
#define EXPY0 \
	VMULPD       expc<>+0(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD expc<>+32(SB), Y1, Y0; \
	VFNMADD231PD expc<>+64(SB), Y1, Y0; \
	VMULPD       expc<>+96(SB), Y0, Y0; \
	VMOVUPD      expc<>+128(SB), Y3; \
	VFMADD213PD  expc<>+160(SB), Y0, Y3; \
	VFMADD213PD  expc<>+192(SB), Y0, Y3; \
	VFMADD213PD  expc<>+224(SB), Y0, Y3; \
	VFMADD213PD  expc<>+256(SB), Y0, Y3; \
	VFMADD213PD  expc<>+288(SB), Y0, Y3; \
	VFMADD213PD  expc<>+320(SB), Y0, Y3; \
	VFMADD213PD  expc<>+352(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VFMADD213PD  expc<>+352(SB), Y3, Y0; \
	VPMOVSXDQ    X2, Y2; \
	VPADDQ       expc<>+480(SB), Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// func expKernel(dst, src []float64) int
TEXT ·expKernel(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0

	// Stop before a block with any lane outside (−708, 708) or NaN; the
	// ordered compares are false on NaN.
	VCMPPD    $0x1e, expc<>+416(SB), Y0, Y2 // x > −708
	VCMPPD    $0x11, expc<>+448(SB), Y0, Y3 // x < 708
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	CMPL      DX, $15
	JNE       expdone

	EXPY0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// ROW2(ow, oa0, oa1, ob) adds one row of the current block to the
// accumulators: Y11 += [(w·a0)·a0, (w·a1)·a0, (w·a1)·a1, (w·b)·a0], the
// products reweightSums forms for g00, g10, g11 and r0, and
// X10 += (w·b)·a1, its product for r1. The arguments are the offsets of
// the row's w from (SI)(AX*8), of its a0 and a1 from (R9)(R13*8), and of
// its b from (R10)(AX*8). Clobbers Y4–Y8.
#define ROW2(ow, oa0, oa1, ob) \
	VBROADCASTSD ow(SI)(AX*8), Y4; \
	VBROADCASTSD oa0(R9)(R13*8), Y5; \
	VBROADCASTSD oa1(R9)(R13*8), Y6; \
	VBROADCASTSD ob(R10)(AX*8), Y7; \
	VBLENDPD     $0x6, Y6, Y5, Y8; \
	VBLENDPD     $0x8, Y7, Y8, Y8; \
	VMULPD       Y8, Y4, Y8; \
	VBLENDPD     $0x4, Y6, Y5, Y5; \
	VMULPD       Y5, Y8, Y5; \
	VADDPD       Y5, Y11, Y11; \
	VMULSD       X7, X4, X7; \
	VMULSD       X6, X7, X7; \
	VADDSD       X7, X10, X10

// func reweightKernel2(gram, rhs, w, res, a, b []float64, mean, std, floor float64) (done, hits int)
//
// Works through the rows in chunks of up to 64 (16 blocks of 4), in two
// phases per chunk:
//
//  1. the weights: d = (res − mean)/std and w = exp(−d·d/2), stored to w,
//     block after block until the chunk ends or a block has a −d·d/2 at
//     or below −708 or NaN, outside the exp's range. The blocks' exp
//     chains are independent, so they overlap.
//  2. the sums: for each weighted block, the count of weights below floor
//     and the rows' weighted products added into the lower triangle of
//     the 2×2 gram (gram[0], gram[2], gram[3]) and into rhs, until a block
//     has a coefficient a0 or a1 or a product w·b that is zero or NaN.
//     Every sum gets its own lane and sees its additions in row order, so
//     the sums are those of reweightSums.
//
// In a weighted block every weight is a positive normal number, so with
// the phase-2 checks no skip of reweightSums can fire in a block the
// kernel takes. It stops before the first block that fails either check,
// and before the tail, and returns the rows it took and the floor hits
// among them. It may have written the weights of up to a chunk of rows
// past those, with the bits weightsInto gives them.
TEXT ·reweightKernel2(SB), NOSPLIT, $0-184
	MOVQ gram_base+0(FP), DI
	MOVQ rhs_base+24(FP), BX
	MOVQ w_base+48(FP), SI
	MOVQ w_len+56(FP), CX
	MOVQ res_base+72(FP), DX
	MOVQ a_base+96(FP), R9
	MOVQ b_base+120(FP), R10
	ANDQ $~3, CX
	XORQ AX, AX
	XORQ R8, R8

	VBROADCASTSD mean+144(FP), Y15
	VBROADCASTSD std+152(FP), Y14
	VBROADCASTSD floor+160(FP), Y13
	VXORPD       Y12, Y12, Y12

	// Y11 = [g00, g10, g11, r0], X10 = r1.
	VMOVSD      (DI), X11
	VMOVHPD     16(DI), X11, X11
	VMOVSD      24(DI), X4
	VMOVHPD     (BX), X4, X4
	VINSERTF128 $1, X4, Y11, Y11
	VMOVSD      8(BX), X10

chunk:
	CMPQ AX, CX
	JGE  rwdone

	// Phase 1 over rows [AX, DI), DI = min(AX+64, CX); R12 is the next
	// row to weight, and BX becomes 1 at a block out of the exp's range.
	MOVQ    AX, R12
	LEAQ    64(AX), DI
	CMPQ    DI, CX
	CMOVQGT CX, DI
	XORQ    BX, BX

weights:
	CMPQ R12, DI
	JGE  sums

	// t = −d·d/2, as (−(d·d))·0.5: the same roundings as the scalar
	// −d*d/2, since negation is exact and halving is x·0.5 = x/2.
	VMOVUPD (DX)(R12*8), Y0
	VSUBPD  Y15, Y0, Y0
	VDIVPD  Y14, Y0, Y0
	VMULPD  Y0, Y0, Y0
	VXORPD  expc<>+512(SB), Y0, Y0
	VMULPD  expc<>+320(SB), Y0, Y0

	// t ≤ 0 always, so (−708, 708) is t > −708; false on NaN.
	VCMPPD    $0x1e, expc<>+416(SB), Y0, Y1
	VMOVMSKPD Y1, R11
	CMPL      R11, $15
	JNE       outofrange

	EXPY0
	VMOVUPD Y0, (SI)(R12*8)
	ADDQ    $4, R12
	JMP     weights

outofrange:
	MOVQ $1, BX

sums:
	// Phase 2 over the weighted rows [AX, R12); R13 = 2·AX indexes a.
	CMPQ AX, R12
	JGE  chunkdone
	LEAQ (AX)(AX*1), R13

	// Every a0 and a1 of the block non-zero and not NaN.
	VCMPPD    $0x0c, (R9)(R13*8), Y12, Y1
	VCMPPD    $0x0c, 32(R9)(R13*8), Y12, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, R11
	CMPL      R11, $15
	JNE       rwdone

	// Every w·b non-zero and not NaN.
	VMOVUPD   (SI)(AX*8), Y0
	VMULPD    (R10)(AX*8), Y0, Y1
	VCMPPD    $0x0c, Y12, Y1, Y1
	VMOVMSKPD Y1, R11
	CMPL      R11, $15
	JNE       rwdone

	// Floor hits: w < floor, ordered.
	VCMPPD    $0x11, Y13, Y0, Y1
	VMOVMSKPD Y1, R11
	POPCNTL   R11, R11
	ADDQ      R11, R8

	ROW2(0, 0, 8, 0)
	ROW2(8, 16, 24, 8)
	ROW2(16, 32, 40, 16)
	ROW2(24, 48, 56, 24)

	ADDQ $4, AX
	JMP  sums

chunkdone:
	TESTQ BX, BX
	JZ    chunk

rwdone:
	MOVQ         gram_base+0(FP), DI
	MOVQ         rhs_base+24(FP), BX
	VEXTRACTF128 $1, Y11, X4
	VMOVSD       X11, (DI)
	VMOVHPD      X11, 16(DI)
	VMOVSD       X4, 24(DI)
	VMOVHPD      X4, (BX)
	VMOVSD       X10, 8(BX)
	VZEROUPPER
	MOVQ         AX, done+168(FP)
	MOVQ         R8, hits+176(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
