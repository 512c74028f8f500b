#include "textflag.h"

// Two-lane body of Normals (DESIGN.md §5, "Two pairs per pass"). Each
// lane of an XMM register holds a different (u, v) pair, and nothing
// crosses lanes. The lane runs the scalar instructions of NormFloat64
// as packed ones, each rounding once, exactly as the scalar op does:
//
//   - math.Log is math.archLog ($GOROOT/src/math/log_amd64.s), op for
//     op: its branches for zero, negative, Inf and NaN are never taken,
//     because u lies in [2^-53, 1];
//   - math.Sqrt is SQRTSD, here SQRTPD;
//   - math.Sincos is the Go code of $GOROOT/src/math/sincos.go for
//     x = 2π·v in [0, 2π): never negative, never past trigReduce's
//     threshold, and +0 at v = 0 reaches the same (+0, 1) through the
//     polynomials as through Sincos's x == 0 return. Its octant
//     branches become integer masks on the octant j.
//
// PAIRS is SSE2 only, the amd64 baseline: no FMA, no VEX, no CPUID,
// and MXCSR left at Go's default (round to nearest, no flush-to-zero).

// The constants, each in both lanes of a 16-byte row. The float rows
// carry the bits of the constants named in log_amd64.s and sin.go.
#define ROW(off, bits) DATA bm<>+off(SB)/8, $bits; DATA bm<>+(off+8)(SB)/8, $bits

ROW(0x000, 0x000fffffffffffff) // mantissa mask
ROW(0x010, 0x3fe0000000000000) // 0.5
ROW(0x020, 0x3fe6a09e667f3bcd) // HSqrt2 = √2/2
ROW(0x030, 0x3ff0000000000000) // 1.0
ROW(0x040, 0x4000000000000000) // 2.0
ROW(0x050, 0x3fe5555555555593) // L1
ROW(0x060, 0x3fd999999997fa04) // L2
ROW(0x070, 0x3fd2492494229359) // L3
ROW(0x080, 0x3fcc71c51d8e78af) // L4
ROW(0x090, 0x3fc7466496cb03de) // L5
ROW(0x0a0, 0x3fc39a09d078c69f) // L6
ROW(0x0b0, 0x3fc2f112df3e5244) // L7
ROW(0x0c0, 0x3fe62e42fee00000) // Ln2Hi
ROW(0x0d0, 0x3dea39ef35793c76) // Ln2Lo
ROW(0x0e0, 0xc000000000000000) // -2.0
ROW(0x0f0, 0x401921fb54442d18) // 2*Pi
ROW(0x100, 0x3ff45f306dc9c883) // 4/Pi
ROW(0x110, 0x3fe921fb40000000) // PI4A
ROW(0x120, 0x3e64442d00000000) // PI4B
ROW(0x130, 0x3ce8469898cc5170) // PI4C
ROW(0x140, 0x3de5d8fd1fd19ccd) // _sin[0]
ROW(0x150, 0xbe5ae5e5a9291f5d) // _sin[1]
ROW(0x160, 0x3ec71de3567d48a1) // _sin[2]
ROW(0x170, 0xbf2a01a019bfdf03) // _sin[3]
ROW(0x180, 0x3f8111111110f7d0) // _sin[4]
ROW(0x190, 0xbfc5555555555548) // _sin[5]
ROW(0x1a0, 0xbda8fa49a0861a9b) // _cos[0]
ROW(0x1b0, 0x3e21ee9d7b4e3f05) // _cos[1]
ROW(0x1c0, 0xbe927e4f7eac4bc6) // _cos[2]
ROW(0x1d0, 0x3efa01a019c844f5) // _cos[3]
ROW(0x1e0, 0xbf56c16c16c14f91) // _cos[4]
ROW(0x1f0, 0x3fa555555555554b) // _cos[5]
ROW(0x200, 0x000003fe000003fe) // int32 0x3fe, the exponent bias - 1
ROW(0x210, 0x0000000100000001) // int32 1
ROW(0x220, 0xfffffffefffffffe) // int32 ^1
ROW(0x230, 0x0000000200000002) // int32 2
ROW(0x240, 0x0000000400000004) // int32 4
ROW(0x250, 0xbf58476d1ce4e5b9) // splitmix64's first multiplier
ROW(0x260, 0x94d049bb133111eb) // its second
ROW(0x270, 0x9e3779b97f4a7c15) // gamma, its state increment
ROW(0x280, 0xe3779b97f4a7c150) // 16·gamma, one pass of eight pairs
ROW(0x290, 0x3ca0000000000000) // 2^-53
ROW(0x2a0, 0x8000000000000000) // the sign bit
GLOBL bm<>(SB), RODATA|NOPTR, $0x2b0

#define MANT   bm<>+0x000(SB)
#define HALF   bm<>+0x010(SB)
#define HSQRT2 bm<>+0x020(SB)
#define ONE    bm<>+0x030(SB)
#define TWO    bm<>+0x040(SB)
#define L1     bm<>+0x050(SB)
#define L2     bm<>+0x060(SB)
#define L3     bm<>+0x070(SB)
#define L4     bm<>+0x080(SB)
#define L5     bm<>+0x090(SB)
#define L6     bm<>+0x0a0(SB)
#define L7     bm<>+0x0b0(SB)
#define LN2HI  bm<>+0x0c0(SB)
#define LN2LO  bm<>+0x0d0(SB)
#define MINUS2 bm<>+0x0e0(SB)
#define TWOPI  bm<>+0x0f0(SB)
#define FOPI   bm<>+0x100(SB)
#define PI4A   bm<>+0x110(SB)
#define PI4B   bm<>+0x120(SB)
#define PI4C   bm<>+0x130(SB)
#define SIN(i) bm<>+(0x140+16*i)(SB)
#define COS(i) bm<>+(0x1a0+16*i)(SB)
#define BIAS   bm<>+0x200(SB)
#define I1     bm<>+0x210(SB)
#define INOT1  bm<>+0x220(SB)
#define I2     bm<>+0x230(SB)
#define I4     bm<>+0x240(SB)
#define MIX1   bm<>+0x250(SB)
#define MIX2   bm<>+0x260(SB)
#define GAMMA  bm<>+0x270(SB)
#define GAMMA16 bm<>+0x280(SB)
#define TWOM53 bm<>+0x290(SB)
#define SIGN   bm<>+0x2a0(SB)

// POLY leaves ((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5) in acc, with
// zz in X7, in sincos.go's order of operations.
#define POLY(C, acc) \
	MOVUPD C(0), acc; MULPD X7, acc; ADDPD C(1), acc; \
	MULPD X7, acc; ADDPD C(2), acc; MULPD X7, acc; ADDPD C(3), acc; \
	MULPD X7, acc; ADDPD C(4), acc; MULPD X7, acc; ADDPD C(5), acc

// PAIRS transforms pair A = (u, v) in X0 and pair B in X1 into
// (mag·cos, mag·sin) in X0 and X1. Clobbers X2-X14.
#define PAIRS \
	/* Lane i of X2 is pair i's u, of X3 its v. */ \
	MOVAPD X0, X2; UNPCKLPD X1, X2; \
	MOVAPD X0, X3; UNPCKHPD X1, X3; \
	\
	/* --- Log(u), archLog's sequence --- */ \
	/* f1, ki := Frexp(u): f1 in X4, k = float64(ki) in X5. */ \
	MOVAPD X2, X4; ANDPD MANT, X4; ORPD HALF, X4; \
	MOVOU X2, X5; PSRLQ $52, X5; PSHUFD $0x08, X5, X5; \
	PSUBL BIAS, X5; CVTPL2PD X5, X5; \
	/* if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }, by a mask. */ \
	MOVUPD HSQRT2, X6; CMPPD X4, X6, 5; \
	MOVUPD ONE, X7; ANDPD X6, X7; SUBPD X7, X5; \
	ADDPD ONE, X7; MULPD X7, X4; \
	/* f := f1 - 1; s := f / (2 + f); s2 := s*s; s4 := s2*s2 */ \
	SUBPD ONE, X4; \
	MOVUPD TWO, X6; ADDPD X4, X6; \
	MOVAPD X4, X7; DIVPD X6, X7; \
	MOVAPD X7, X8; MULPD X8, X8; \
	MOVAPD X8, X9; MULPD X9, X9; \
	/* t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7))) in X8 */ \
	MOVUPD L7, X10; MULPD X9, X10; ADDPD L5, X10; MULPD X9, X10; \
	ADDPD L3, X10; MULPD X9, X10; ADDPD L1, X10; MULPD X10, X8; \
	/* t2 := s4 * (L2 + s4*(L4+s4*L6)) in X9; R := t1 + t2 in X8 */ \
	MOVUPD L6, X10; MULPD X9, X10; ADDPD L4, X10; MULPD X9, X10; \
	ADDPD L2, X10; MULPD X10, X9; \
	ADDPD X9, X8; \
	/* hfsq := 0.5 * f * f in X6 */ \
	MOVUPD HALF, X6; MULPD X4, X6; MULPD X4, X6; \
	/* k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) in X5 */ \
	ADDPD X6, X8; MULPD X8, X7; \
	MOVUPD LN2LO, X10; MULPD X5, X10; ADDPD X10, X7; \
	SUBPD X7, X6; SUBPD X4, X6; \
	MULPD LN2HI, X5; SUBPD X6, X5; \
	/* mag := Sqrt(-2.0 * Log(u)) in X5 */ \
	MULPD MINUS2, X5; SQRTPD X5, X5; \
	\
	/* --- Sincos(2*Pi*v), sincos.go's x >= 0 path --- */ \
	/* j := uint64(x * (4/Pi)); odd j and its y move up one. */ \
	MULPD TWOPI, X3; \
	MOVAPD X3, X4; MULPD FOPI, X4; CVTTPD2PL X4, X4; \
	PADDL I1, X4; PAND INOT1, X4; \
	CVTPL2PD X4, X6; \
	/* z := ((x - y*PI4A) - y*PI4B) - y*PI4C in X3 */ \
	MOVUPD PI4A, X7; MULPD X6, X7; SUBPD X7, X3; \
	MOVUPD PI4B, X7; MULPD X6, X7; SUBPD X7, X3; \
	MULPD PI4C, X6; SUBPD X6, X3; \
	/* zz := z * z in X7 */ \
	MOVAPD X3, X7; MULPD X7, X7; \
	/* cos := 1.0 - 0.5*zz + zz*zz*poly in X10 */ \
	POLY(COS, X8); \
	MOVAPD X7, X9; MULPD X7, X9; MULPD X9, X8; \
	MOVUPD HALF, X9; MULPD X7, X9; \
	MOVUPD ONE, X10; SUBPD X9, X10; ADDPD X8, X10; \
	/* sin := z + z*zz*poly in X8 */ \
	POLY(SIN, X8); \
	MULPD X3, X7; MULPD X7, X8; ADDPD X3, X8; \
	\
	/* --- the octant, j&7 in {0, 2, 4, 6}, as masks --- */ \
	/* Each lane's j into both halves of its quadword. */ \
	PSHUFD $0x50, X4, X4; \
	/* swap (j&7 == 2 or 6) in X11 */ \
	MOVOU X4, X11; PAND I2, X11; PCMPEQL I2, X11; \
	/* cosSign (j&7 == 2 or 4): bit 1 ^ bit 2, to the sign, in X12 */ \
	MOVOU X4, X12; PADDL X12, X12; PXOR X4, X12; PAND I4, X12; PSLLQ $61, X12; \
	/* sinSign (j&7 == 4 or 6): bit 2, to the sign, in X4 */ \
	PAND I4, X4; PSLLQ $61, X4; \
	/* sin, cos = cos, sin on swap lanes: X13 = sin, X11 = cos */ \
	MOVAPD X10, X13; ANDPD X11, X13; \
	MOVAPD X11, X14; ANDNPD X8, X14; ORPD X14, X13; \
	ANDPD X11, X8; ANDNPD X10, X11; ORPD X8, X11; \
	/* the signs, then mag*cos and mag*sin */ \
	XORPD X12, X11; XORPD X4, X13; \
	MULPD X5, X11; MULPD X5, X13; \
	\
	/* Back to pairs: (mag·cos, mag·sin) of A in X0, of B in X1. */ \
	MOVAPD X11, X0; UNPCKLPD X13, X0; \
	MOVAPD X11, X1; UNPCKHPD X13, X1

// func boxMullerPairs(p []float64)
TEXT ·boxMullerPairs(SB), NOSPLIT, $0-24
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	SHRQ $1, CX
	SUBQ $2, CX
	JLT  tail

loop:
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	PAIRS
	MOVUPD X0, (SI)
	MOVUPD X1, 16(SI)
	ADDQ   $32, SI
	SUBQ   $2, CX
	JGE    loop

tail:
	// One pair left: it runs in both lanes, and lane 0 is stored.
	ADDQ $2, CX
	JEQ  done
	MOVUPD (SI), X0
	MOVAPD X0, X1
	PAIRS
	MOVUPD X0, (SI)

done:
	RET

// Eight-lane body of Normals (DESIGN.md §5, "Eight pairs per pass"),
// for a CPU with AVX512F and AVX512DQ. Lane i of a ZMM register holds
// pair i of a group of eight, and PAIRS8 is PAIRS op for op on eight
// lanes: the same packed operations in the same order, each rounding
// once per lane, no FMA, no embedded rounding, and the octant masks as
// opmask registers. Every AVX-512 path ends in VZEROUPPER.

// The eight-lane rows, one qword a lane: the splitmix64 state offset
// of lane i's u draw, (2i+1)·gamma (its v draw's is one gamma more),
// and the VPERMT2PD indices that interleave eight cosines (0-7) and
// eight sines (8-15) into pairs, and split pairs into u and v.
#define LANES(off, b0, b1, b2, b3, b4, b5, b6, b7) \
	DATA lanes<>+off(SB)/8, $b0; DATA lanes<>+(off+8)(SB)/8, $b1; \
	DATA lanes<>+(off+16)(SB)/8, $b2; DATA lanes<>+(off+24)(SB)/8, $b3; \
	DATA lanes<>+(off+32)(SB)/8, $b4; DATA lanes<>+(off+40)(SB)/8, $b5; \
	DATA lanes<>+(off+48)(SB)/8, $b6; DATA lanes<>+(off+56)(SB)/8, $b7

LANES(0x000, 0x9e3779b97f4a7c15, 0xdaa66d2c7ddf743f, 0x1715609f7c746c69, 0x538454127b096493, 0x8ff34785799e5cbd, 0xcc623af8783354e7, 0x08d12e6b76c84d11, 0x454021de755d453b)
LANES(0x040, 0, 8, 1, 9, 2, 10, 3, 11)
LANES(0x080, 4, 12, 5, 13, 6, 14, 7, 15)
LANES(0x0c0, 0, 2, 4, 6, 8, 10, 12, 14)
LANES(0x100, 1, 3, 5, 7, 9, 11, 13, 15)
GLOBL lanes<>(SB), RODATA|NOPTR, $0x140

#define OFFU  lanes<>+0x000(SB)
#define PAIR0 lanes<>+0x040(SB)
#define PAIR1 lanes<>+0x080(SB)
#define SPLTU lanes<>+0x0c0(SB)
#define SPLTV lanes<>+0x100(SB)

// UNIFORM turns eight splitmix64 states in z into the eight Float64
// values their Uint64 draws give: the mix by VPMULLQ (the low 64 bits
// of the product, Go's wrapping multiply) and float64(z>>11)·2^-53 by
// VCVTUQQ2PD and VMULPD, both exact. Clobbers t.
#define UNIFORM(z, t) \
	VPSRLQ $30, z, t; VPXORQ t, z, z; VPMULLQ.BCST MIX1, z, z; \
	VPSRLQ $27, z, t; VPXORQ t, z, z; VPMULLQ.BCST MIX2, z, z; \
	VPSRLQ $31, z, t; VPXORQ t, z, z; \
	VPSRLQ $11, z, z; VCVTUQQ2PD z, z; VMULPD.BCST TWOM53, z, z

// POLY8 is POLY on eight lanes, zz in Z7.
#define POLY8(C, acc) \
	VMULPD.BCST C(0), Z7, acc; VADDPD.BCST C(1), acc, acc; \
	VMULPD Z7, acc, acc; VADDPD.BCST C(2), acc, acc; VMULPD Z7, acc, acc; VADDPD.BCST C(3), acc, acc; \
	VMULPD Z7, acc, acc; VADDPD.BCST C(4), acc, acc; VMULPD Z7, acc, acc; VADDPD.BCST C(5), acc, acc

// PAIRS8 transforms eight pairs, u in Z2 and v in Z3, into mag·cos in
// Z11 and mag·sin in Z13. Clobbers Z2-Z13 and K1-K3.
#define PAIRS8 \
	/* --- Log(u), archLog's sequence --- */ \
	/* f1, ki := Frexp(u): f1 in Z4, k = float64(ki) in Z5. */ \
	VPANDQ.BCST MANT, Z2, Z4; VPORQ.BCST HALF, Z4, Z4; \
	VPSRLQ $52, Z2, Z5; VPMOVQD Z5, Y5; VPSUBD.BCST BIAS, Z5, Z5; VCVTDQ2PD Y5, Z5; \
	/* if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }: f1 not greater, in K1. */ \
	VCMPPD.BCST $0x0a, HSQRT2, Z4, K1; \
	VSUBPD.BCST ONE, Z5, K1, Z5; VMULPD.BCST TWO, Z4, K1, Z4; \
	/* f := f1 - 1; s := f / (2 + f); s2 := s*s; s4 := s2*s2 */ \
	VSUBPD.BCST ONE, Z4, Z4; \
	VADDPD.BCST TWO, Z4, Z6; VDIVPD Z6, Z4, Z7; \
	VMULPD Z7, Z7, Z8; VMULPD Z8, Z8, Z9; \
	/* t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7))) in Z8 */ \
	VMULPD.BCST L7, Z9, Z10; VADDPD.BCST L5, Z10, Z10; VMULPD Z9, Z10, Z10; \
	VADDPD.BCST L3, Z10, Z10; VMULPD Z9, Z10, Z10; VADDPD.BCST L1, Z10, Z10; VMULPD Z10, Z8, Z8; \
	/* t2 := s4 * (L2 + s4*(L4+s4*L6)) in Z9; R := t1 + t2 in Z8 */ \
	VMULPD.BCST L6, Z9, Z10; VADDPD.BCST L4, Z10, Z10; VMULPD Z9, Z10, Z10; \
	VADDPD.BCST L2, Z10, Z10; VMULPD Z10, Z9, Z9; \
	VADDPD Z9, Z8, Z8; \
	/* hfsq := 0.5 * f * f in Z6 */ \
	VMULPD.BCST HALF, Z4, Z6; VMULPD Z4, Z6, Z6; \
	/* k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) in Z5 */ \
	VADDPD Z6, Z8, Z8; VMULPD Z8, Z7, Z7; \
	VMULPD.BCST LN2LO, Z5, Z10; VADDPD Z10, Z7, Z7; \
	VSUBPD Z7, Z6, Z6; VSUBPD Z4, Z6, Z6; \
	VMULPD.BCST LN2HI, Z5, Z5; VSUBPD Z6, Z5, Z5; \
	/* mag := Sqrt(-2.0 * Log(u)) in Z5 */ \
	VMULPD.BCST MINUS2, Z5, Z5; VSQRTPD Z5, Z5; \
	\
	/* --- Sincos(2*Pi*v), sincos.go's x >= 0 path --- */ \
	/* j := uint64(x * (4/Pi)); odd j and its y move up one. */ \
	VMULPD.BCST TWOPI, Z3, Z3; \
	VMULPD.BCST FOPI, Z3, Z4; VCVTTPD2DQ Z4, Y4; \
	VPADDD.BCST I1, Z4, Z4; VPANDD.BCST INOT1, Z4, Z4; \
	VCVTDQ2PD Y4, Z6; \
	/* z := ((x - y*PI4A) - y*PI4B) - y*PI4C in Z3 */ \
	VMULPD.BCST PI4A, Z6, Z7; VSUBPD Z7, Z3, Z3; \
	VMULPD.BCST PI4B, Z6, Z7; VSUBPD Z7, Z3, Z3; \
	VMULPD.BCST PI4C, Z6, Z6; VSUBPD Z6, Z3, Z3; \
	/* zz := z * z in Z7 */ \
	VMULPD Z3, Z3, Z7; \
	/* cos := 1.0 - 0.5*zz + zz*zz*poly in Z10 */ \
	POLY8(COS, Z8); \
	VMULPD Z7, Z7, Z9; VMULPD Z9, Z8, Z8; \
	VMULPD.BCST HALF, Z7, Z9; \
	VBROADCASTSD ONE, Z10; VSUBPD Z9, Z10, Z10; VADDPD Z8, Z10, Z10; \
	/* sin := z + z*zz*poly in Z8 */ \
	POLY8(SIN, Z8); \
	VMULPD Z3, Z7, Z7; VMULPD Z7, Z8, Z8; VADDPD Z3, Z8, Z8; \
	\
	/* --- the octant, j&7 in {0, 2, 4, 6}, as opmasks --- */ \
	/* Lane i's j is dword i of Z4, so bit i of a dword test is lane i's. */ \
	/* swap (bit 1) in K1, sinSign (bit 2) in K2, cosSign (bit 1 ^ bit 2) in K3 */ \
	VPTESTMD.BCST I2, Z4, K1; VPTESTMD.BCST I4, Z4, K2; KXORW K1, K2, K3; \
	/* sin, cos = cos, sin on swap lanes: Z13 = sin, Z11 = cos */ \
	VBLENDMPD Z10, Z8, K1, Z13; VBLENDMPD Z8, Z10, K1, Z11; \
	/* the signs, then mag*cos and mag*sin */ \
	VPXORQ.BCST SIGN, Z11, K3, Z11; VPXORQ.BCST SIGN, Z13, K2, Z13; \
	VMULPD Z5, Z11, Z11; VMULPD Z5, Z13, Z13

// STORE8 interleaves Z11 and Z13 into eight (mag·cos, mag·sin) pairs
// at (SI), with the indices in Z21 and Z22. Clobbers Z11 and Z12.
#define STORE8 \
	VMOVAPD Z11, Z12; VPERMT2PD Z13, Z21, Z12; VPERMT2PD Z13, Z22, Z11; \
	VMOVUPD Z12, (SI); VMOVUPD Z11, 64(SI)

// func normals8(p []float64, state *uint64) int
TEXT ·normals8(SB), NOSPLIT, $0-40
	MOVQ         p_base+0(FP), SI
	MOVQ         p_len+8(FP), CX
	ANDQ         $-16, CX
	MOVQ         CX, ret+32(FP)
	JEQ          done8
	MOVQ         state+24(FP), DI
	MOVQ         (DI), AX
	VPBROADCASTQ AX, Z16
	VPADDQ       OFFU, Z16, Z16
	VPBROADCASTQ GAMMA16, Z19
	VBROADCASTSD ONE, Z20
	VMOVDQU64    PAIR0, Z21
	VMOVDQU64    PAIR1, Z22
	MOVQ         CX, DX
	IMULQ        GAMMA, DX
	ADDQ         DX, AX
	MOVQ         AX, (DI) // *state += n·gamma: one Uint64 draw a normal

loop8:
	// Lane i draws s + (2i+1)·gamma for u and one gamma more for v.
	VMOVDQA64   Z16, Z2
	VPADDQ.BCST GAMMA, Z16, Z3
	VPADDQ      Z19, Z16, Z16
	UNIFORM(Z2, Z4)
	UNIFORM(Z3, Z5)
	VSUBPD      Z2, Z20, Z2
	PAIRS8
	STORE8
	ADDQ        $128, SI
	SUBQ        $16, CX
	JNE         loop8
	VZEROUPPER

done8:
	RET

// func boxMuller8(p []float64)
//
// PAIRS8 alone, on the (u, v) pairs in p (len(p) a multiple of 16):
// the tests' way to put a chosen pair in a chosen lane.
TEXT ·boxMuller8(SB), NOSPLIT, $0-24
	MOVQ      p_base+0(FP), SI
	MOVQ      p_len+8(FP), CX
	VMOVDQU64 PAIR0, Z21
	VMOVDQU64 PAIR1, Z22
	VMOVDQU64 SPLTU, Z23
	VMOVDQU64 SPLTV, Z24
	SUBQ      $16, CX
	JLT       doneT

loopT:
	VMOVUPD   (SI), Z2
	VMOVUPD   64(SI), Z4
	VMOVAPD   Z2, Z3
	VPERMT2PD Z4, Z23, Z2
	VPERMT2PD Z4, Z24, Z3
	PAIRS8
	STORE8
	ADDQ      $128, SI
	SUBQ      $16, CX
	JGE       loopT

doneT:
	VZEROUPPER
	RET
