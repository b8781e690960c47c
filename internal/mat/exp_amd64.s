#include "textflag.h"

// A 4-lane AVX2+FMA exp that runs, lane for lane, the operations of the
// FMA path of the runtime's amd64 math.Exp (Shibata's SIMD method from
// SLEEF, src/math/exp_amd64.s): the same constants, the same fused and
// unfused multiplies and adds in the same order, and the same
// round-to-nearest conversion of x·log2(e). Each lane's result is
// therefore bit-identical to math.Exp on that path. The kernel handles
// only arguments in (−708, 708), where the scaling 2ⁿ is a normal number
// and the scalar code never takes its overflow or denormal branch.

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
SPLAT(416, $-708.0) // lower end of the kernel's range (exclusive)
SPLAT(448, $708.0)  // upper end of the kernel's range (exclusive)
SPLAT(480, $1023)   // exponent bias, as int64
GLOBL expc<>(SB), RODATA|NOPTR, $512

// func expKernel(dst, src []float64) int
TEXT ·expKernel(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0

	// Stop before a block with any lane outside (−708, 708) or NaN; the
	// ordered compares are false on NaN.
	VCMPPD    $0x1e, expc<>+416(SB), Y0, Y2 // x > −708
	VCMPPD    $0x11, expc<>+448(SB), Y0, Y3 // x < 708
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	CMPL      DX, $15
	JNE       done

	// n = round(x·log2(e)); r = (x − n·ln2U − n·ln2L)/16.
	VMULPD       expc<>+0(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expc<>+32(SB), Y1, Y0
	VFNMADD231PD expc<>+64(SB), Y1, Y0
	VMULPD       expc<>+96(SB), Y0, Y0

	// Taylor polynomial in r by Horner's rule.
	VMOVUPD     expc<>+128(SB), Y3
	VFMADD213PD expc<>+160(SB), Y0, Y3
	VFMADD213PD expc<>+192(SB), Y0, Y3
	VFMADD213PD expc<>+224(SB), Y0, Y3
	VFMADD213PD expc<>+256(SB), Y0, Y3
	VFMADD213PD expc<>+288(SB), Y0, Y3
	VFMADD213PD expc<>+320(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0

	// Square back up four times: y ← y·(y+2), the last one fused with +1.
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y3, Y0

	// Scale by 2ⁿ, built from its exponent bits.
	VPMOVSXDQ X2, Y2
	VPADDQ    expc<>+480(SB), Y2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
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
