#include "textflag.h"

// Four- and sixteen-lane bodies of the axpy, GEMM-row and momentum
// kernels (DESIGN.md §13, "Four lanes, the same roundings" and "Sixteen
// lanes where the CPU has them"). The SSE2 bodies run on every amd64;
// where the init-time probe (internal/cpu) found AVX-512F with its
// register state enabled, avx512 is set and the paired row bodies, and
// a 16-lane loop in front of axpy's and momentum's SSE2 loops, use
// VEX/EVEX instructions. Each lane is a different output element: every
// packed MULPS/ADDPS/SUBPS, VEX or EVEX, rounds each lane once exactly
// as the scalar MULSS/ADDSS/SUBSS of the Go loops in kernels_generic.go
// do, and no instruction fuses a multiply with an add. A leftover
// shorter than four runs the same sequence on one lane. The Go wrappers
// in tensor.go check every bound before a pointer gets here.

// func axpyKernel(alpha float32, x, y *float32, n int)
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DI
	MOVQ   n+24(FP), CX
	CMPB   ·avx512(SB), $0
	JEQ    quads
	VBROADCASTSS alpha+0(FP), Z3
	SUBQ   $16, CX
	JLT    wideDone
wide:
	VMULPS  (SI), Z3, Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     wide
wideDone:
	ADDQ $16, CX
	VZEROUPPER
quads:
	SUBQ   $4, CX
	JLT    tail

loop:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X2
	ADDPS  X1, X2
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JGE    loop

tail:
	ADDQ $4, CX
	JEQ  done
one:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X2
	ADDSS X1, X2
	MOVSS X2, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNE   one
done:
	RET

// Every row body walks c in tiles of 20 columns, then 4, then 1, and
// keeps a tile in registers for the whole reduction over p. An SSE2
// body holds a 20-column tile of one row in X0-X4; a paired body holds
// one of two rows, 16 columns in a ZMM and 4 in an XMM accumulator per
// row (Z0/X1 for the first, Z2/X3 for the second), and runs each row's
// 4- and 1-column tiles on SSE2. R11 points at the tile's columns in
// row p of b, DX is b's row stride in bytes (and c's).

// GROUP adds ((a0·b0 + a1·b1) + a2·b2) + a3·b3 into acc for the columns
// at off, with a0..a3 broadcast in X5..X8 and rows p+2, p+3 of b at R12.
#define GROUP(LOAD, MUL, ADD, off, acc) \
	LOAD off(R11), X9; MUL X5, X9; \
	LOAD off(R11)(DX*1), X10; MUL X6, X10; ADD X10, X9; \
	LOAD off(R12), X10; MUL X7, X10; ADD X10, X9; \
	LOAD off(R12)(DX*1), X10; MUL X8, X10; ADD X10, X9; \
	ADD X9, acc

// TERM adds a·b into acc for the columns at off, with a broadcast in X5.
#define TERM(LOAD, MUL, ADD, off, acc) \
	LOAD off(R11), X9; MUL X5, X9; ADD X9, acc

// GROUPS opens the loop over the aligned groups of four p of the row
// of a at SI: AX walks a, R11 walks b from the tile's columns at R8,
// CX counts the groups.
#define GROUPS(tail) \
	MOVQ SI, AX; MOVQ R8, R11; MOVQ R9, CX; SHRQ $2, CX; JEQ tail

// GROUP_HEAD jumps to next when the group's four a are all ±0 (their
// bits with the sign masked off by R10 are zero), else broadcasts them
// into X5..X8 and points R12 at row p+2 of b.
#define GROUP_HEAD(next) \
	MOVQ (AX), R12; ORQ 8(AX), R12; ANDQ R10, R12; JEQ next; \
	MOVSS (AX), X5; SHUFPS $0x00, X5, X5; \
	MOVSS 4(AX), X6; SHUFPS $0x00, X6, X6; \
	MOVSS 8(AX), X7; SHUFPS $0x00, X7, X7; \
	MOVSS 12(AX), X8; SHUFPS $0x00, X8, X8; \
	LEAQ (R11)(DX*2), R12

#define GROUP_NEXT(loop) \
	ADDQ $16, AX; LEAQ (R11)(DX*4), R11; DECQ CX; JNE loop

// ONE_HEAD loads the next single a into X5 (broadcast) unless it is ±0.
#define ONE_HEAD(next) \
	MOVL (AX), R12; ANDL $0x7fffffff, R12; JEQ next; \
	MOVSS (AX), X5; SHUFPS $0x00, X5, X5

// MATMUL_NARROW runs the 4- and 1-column tiles of one row of MatMul,
// BX columns from R8 (b) and DI (c) on.
#define MATMUL_NARROW \
quadTile: \
	SUBQ $4, BX; JLT lane; \
	XORPS X0, X0; \
	GROUPS(quadTail); \
quadGroup: \
	GROUP_HEAD(quadNext); \
	GROUP(MOVUPS, MULPS, ADDPS, 0, X0); \
quadNext: \
	GROUP_NEXT(quadGroup); \
quadTail: \
	MOVQ R9, CX; ANDQ $3, CX; JEQ quadStore; \
quadOne: \
	ONE_HEAD(quadOneNext); \
	TERM(MOVUPS, MULPS, ADDPS, 0, X0); \
quadOneNext: \
	ADDQ $4, AX; ADDQ DX, R11; DECQ CX; JNE quadOne; \
quadStore: \
	MOVUPS X0, (DI); ADDQ $16, R8; ADDQ $16, DI; JMP quadTile; \
lane: \
	ADDQ $4, BX; JEQ narrowDone; \
laneTile: \
	XORPS X0, X0; \
	GROUPS(laneTail); \
laneGroup: \
	GROUP_HEAD(laneNext); \
	GROUP(MOVSS, MULSS, ADDSS, 0, X0); \
laneNext: \
	GROUP_NEXT(laneGroup); \
laneTail: \
	MOVQ R9, CX; ANDQ $3, CX; JEQ laneStore; \
laneOne: \
	ONE_HEAD(laneOneNext); \
	TERM(MOVSS, MULSS, ADDSS, 0, X0); \
laneOneNext: \
	ADDQ $4, AX; ADDQ DX, R11; DECQ CX; JNE laneOne; \
laneStore: \
	MOVSS X0, (DI); ADDQ $4, R8; ADDQ $4, DI; DECQ BX; JNE laneTile; \
narrowDone:

// PAIR_GROUP is GROUP_HEAD and GROUP for one row of a paired body, 20
// columns at once: it jumps to skip when the four a at A are all ±0,
// else broadcasts them into Z5..Z8 and adds the group's term into zacc
// and xacc, with rows p..p+3 of b in Z20..Z23 (16 columns) and X9..X12
// (4 columns).
#define PAIR_GROUP(A, skip, zacc, xacc) \
	MOVQ 0 A, R13; ORQ 8 A, R13; ANDQ R10, R13; JEQ skip; \
	VBROADCASTSS 0 A, Z5; VBROADCASTSS 4 A, Z6; \
	VBROADCASTSS 8 A, Z7; VBROADCASTSS 12 A, Z8; \
	VMULPS Z20, Z5, Z16; VMULPS Z21, Z6, Z17; VADDPS Z17, Z16, Z16; \
	VMULPS Z22, Z7, Z17; VADDPS Z17, Z16, Z16; \
	VMULPS Z23, Z8, Z17; VADDPS Z17, Z16, Z16; \
	VADDPS Z16, zacc, zacc; \
	VMULPS X9, X5, X13; VMULPS X10, X6, X14; VADDPS X14, X13, X13; \
	VMULPS X11, X7, X14; VADDPS X14, X13, X13; \
	VMULPS X12, X8, X14; VADDPS X14, X13, X13; \
	VADDPS X13, xacc, xacc

// PAIR_TERM adds a·b for the single a at A into zacc and xacc, with the
// row of b in Z20 and X9, unless a is ±0 (then it jumps to skip).
#define PAIR_TERM(A, skip, zacc, xacc) \
	MOVL A, R13; ANDL $0x7fffffff, R13; JEQ skip; \
	VBROADCASTSS A, Z5; \
	VMULPS Z20, Z5, Z16; VADDPS Z16, zacc, zacc; \
	VMULPS X9, X5, X13; VADDPS X13, xacc, xacc

// PAIR_STEP loads row p of b once and adds its term to both rows, the
// first row's a at A0, the second's at A1.
#define PAIR_STEP(A0, A1, row1, next) \
	VMOVUPS (R11), Z20; VMOVUPS 64(R11), X9; \
	PAIR_TERM(A0, row1, Z0, X1); \
row1: \
	PAIR_TERM(A1, next, Z2, X3)

// PAIR_STORE writes both rows' 20-column tile and moves R8 and DI to
// the next.
#define PAIR_STORE \
	VMOVUPS Z0, (DI); VMOVUPS X1, 64(DI); \
	VMOVUPS Z2, (DI)(DX*1); VMOVUPS X3, 64(DI)(DX*1); \
	ADDQ $80, R8; ADDQ $80, DI

// NARROW_ROWS follows a paired body's 20-column tiles: after
// VZEROUPPER, R13 holds the columns they left over in each row (BX),
// R14 the same in bytes, R15 counts the two rows.
#define NARROW_ROWS \
	VZEROUPPER; ADDQ $20, BX; MOVQ BX, R13; MOVQ BX, R14; SHLQ $2, R14; MOVQ $2, R15

// NEXT_ROW moves R8 and DI back to the first leftover column, DI down
// to the second row of c, and loops while a row is left; the caller has
// moved SI to the second row's a.
#define NEXT_ROW(loop) \
	SUBQ R14, R8; SUBQ R14, DI; ADDQ DX, DI; MOVQ R13, BX; DECQ R15; JNE loop

// func matMulRowKernel(a, b, c []float32)
//
// c[j] = Σ over p of a[p]·b[p*len(c)+j] from +0: each aligned group of
// four p joins as one pre-added term, skipped when its four a are all
// ±0; the len(a)%4 tail one p at a time, skipping ±0.
TEXT ·matMulRowKernel(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), R9
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), DI
	MOVQ c_len+56(FP), BX
	MOVQ BX, DX
	SHLQ $2, DX
	MOVQ $0x7fffffff7fffffff, R10

wide:
	SUBQ  $20, BX
	JLT   narrow
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	GROUPS(wideTail)
wideGroup:
	GROUP_HEAD(wideNext)
	GROUP(MOVUPS, MULPS, ADDPS, 0, X0)
	GROUP(MOVUPS, MULPS, ADDPS, 16, X1)
	GROUP(MOVUPS, MULPS, ADDPS, 32, X2)
	GROUP(MOVUPS, MULPS, ADDPS, 48, X3)
	GROUP(MOVUPS, MULPS, ADDPS, 64, X4)
wideNext:
	GROUP_NEXT(wideGroup)
wideTail:
	MOVQ R9, CX
	ANDQ $3, CX
	JEQ  wideStore
wideOne:
	ONE_HEAD(wideOneNext)
	TERM(MOVUPS, MULPS, ADDPS, 0, X0)
	TERM(MOVUPS, MULPS, ADDPS, 16, X1)
	TERM(MOVUPS, MULPS, ADDPS, 32, X2)
	TERM(MOVUPS, MULPS, ADDPS, 48, X3)
	TERM(MOVUPS, MULPS, ADDPS, 64, X4)
wideOneNext:
	ADDQ $4, AX
	ADDQ DX, R11
	DECQ CX
	JNE  wideOne
wideStore:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	ADDQ   $80, R8
	ADDQ   $80, DI
	JMP    wide

narrow:
	ADDQ $20, BX
	MATMUL_NARROW
	RET

// func matMulRowPairKernel(a, b, c []float32)
//
// Two rows of matMulRowKernel at once: a and c each hold two rows, of
// len(a)/2 and len(c)/2 elements, R14 is a's row stride in bytes. Each
// 20-column tile of both rows is one pass over b, and each row keeps
// its own group skip and k%4 tail.
TEXT ·matMulRowPairKernel(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), R9
	SHRQ $1, R9
	MOVQ R9, R14
	SHLQ $2, R14
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), DI
	MOVQ c_len+56(FP), BX
	SHRQ $1, BX
	MOVQ BX, DX
	SHLQ $2, DX
	MOVQ $0x7fffffff7fffffff, R10

pairTile:
	SUBQ   $20, BX
	JLT    pairNarrow
	VPXORD Z0, Z0, Z0
	VXORPS X1, X1, X1
	VPXORD Z2, Z2, Z2
	VXORPS X3, X3, X3
	GROUPS(pairTail)
pairGroup:
	LEAQ    (R11)(DX*2), R12
	VMOVUPS (R11), Z20
	VMOVUPS (R11)(DX*1), Z21
	VMOVUPS (R12), Z22
	VMOVUPS (R12)(DX*1), Z23
	VMOVUPS 64(R11), X9
	VMOVUPS 64(R11)(DX*1), X10
	VMOVUPS 64(R12), X11
	VMOVUPS 64(R12)(DX*1), X12
	PAIR_GROUP((AX), pairRow1, Z0, X1)
pairRow1:
	PAIR_GROUP((AX)(R14*1), pairNext, Z2, X3)
pairNext:
	GROUP_NEXT(pairGroup)
pairTail:
	MOVQ R9, CX
	ANDQ $3, CX
	JEQ  pairStore
pairOne:
	PAIR_STEP((AX), (AX)(R14*1), pairOneRow1, pairOneNext)
pairOneNext:
	ADDQ $4, AX
	ADDQ DX, R11
	DECQ CX
	JNE  pairOne
pairStore:
	PAIR_STORE
	JMP pairTile

pairNarrow:
	NARROW_ROWS
narrowRow:
	MATMUL_NARROW
	LEAQ (SI)(R9*4), SI
	NEXT_ROW(narrowRow)
	RET

// STEPS opens the loop over p of the column of a at SI: AX walks a by
// its stride R10, R11 walks b from the tile's columns at R8, CX counts
// the p.
#define STEPS(store) \
	MOVQ SI, AX; MOVQ R8, R11; MOVQ R9, CX; TESTQ CX, CX; JEQ store

#define STEP_NEXT(loop) \
	ADDQ R10, AX; ADDQ DX, R11; DECQ CX; JNE loop

// TRANSA_NARROW runs the 4- and 1-column tiles of one row of
// MatMulTransAAdd, BX columns from R8 (b) and DI (c) on.
#define TRANSA_NARROW \
quadTile: \
	SUBQ $4, BX; JLT lane; \
	MOVUPS (DI), X0; \
	STEPS(quadStore); \
quadStep: \
	ONE_HEAD(quadNext); \
	TERM(MOVUPS, MULPS, ADDPS, 0, X0); \
quadNext: \
	STEP_NEXT(quadStep); \
quadStore: \
	MOVUPS X0, (DI); ADDQ $16, R8; ADDQ $16, DI; JMP quadTile; \
lane: \
	ADDQ $4, BX; JEQ narrowDone; \
laneTile: \
	MOVSS (DI), X0; \
	STEPS(laneStore); \
laneStep: \
	ONE_HEAD(laneNext); \
	TERM(MOVSS, MULSS, ADDSS, 0, X0); \
laneNext: \
	STEP_NEXT(laneStep); \
laneStore: \
	MOVSS X0, (DI); ADDQ $4, R8; ADDQ $4, DI; DECQ BX; JNE laneTile; \
narrowDone:

// func matMulTransARowKernel(a []float32, stride, k int, b, c []float32)
//
// c[j] += a[p*stride]·b[p*len(c)+j] for p = 0, 1, …, k-1 in turn, one
// rounding per add, skipping every p whose a is ±0.
TEXT ·matMulTransARowKernel(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ stride+24(FP), R10
	SHLQ $2, R10
	MOVQ k+32(FP), R9
	MOVQ b_base+40(FP), R8
	MOVQ c_base+64(FP), DI
	MOVQ c_len+72(FP), BX
	MOVQ BX, DX
	SHLQ $2, DX

wide:
	SUBQ   $20, BX
	JLT    narrow
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	STEPS(wideStore)
wideStep:
	ONE_HEAD(wideNext)
	TERM(MOVUPS, MULPS, ADDPS, 0, X0)
	TERM(MOVUPS, MULPS, ADDPS, 16, X1)
	TERM(MOVUPS, MULPS, ADDPS, 32, X2)
	TERM(MOVUPS, MULPS, ADDPS, 48, X3)
	TERM(MOVUPS, MULPS, ADDPS, 64, X4)
wideNext:
	STEP_NEXT(wideStep)
wideStore:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	ADDQ   $80, R8
	ADDQ   $80, DI
	JMP    wide

narrow:
	ADDQ $20, BX
	TRANSA_NARROW
	RET

// func matMulTransARowPairKernel(a []float32, stride, k int, b, c []float32)
//
// Two rows of matMulTransARowKernel at once: c holds rows i and i+1
// (len(c)/2 elements each), read from columns i and i+1 of a, which
// start at a[0] and a[1]. Each 20-column tile of both rows is one pass
// over b: four add chains, each row skipping its own ±0.
TEXT ·matMulTransARowPairKernel(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ stride+24(FP), R10
	SHLQ $2, R10
	MOVQ k+32(FP), R9
	MOVQ b_base+40(FP), R8
	MOVQ c_base+64(FP), DI
	MOVQ c_len+72(FP), BX
	SHRQ $1, BX
	MOVQ BX, DX
	SHLQ $2, DX

pairTile:
	SUBQ    $20, BX
	JLT     pairNarrow
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), X1
	VMOVUPS (DI)(DX*1), Z2
	VMOVUPS 64(DI)(DX*1), X3
	STEPS(pairStore)
pairStep:
	PAIR_STEP((AX), 4(AX), pairRow1, pairNext)
pairNext:
	STEP_NEXT(pairStep)
pairStore:
	PAIR_STORE
	JMP pairTile

pairNarrow:
	NARROW_ROWS
narrowRow:
	TRANSA_NARROW
	ADDQ $4, SI
	NEXT_ROW(narrowRow)
	RET

// func momentumKernel(lr, mu, wd float32, p, grad, v *float32, n int)
//
// gj := grad[j] + wd*p[j]; v[j] = mu*v[j] - lr*gj; p[j] += v[j]; grad[j] = 0.
TEXT ·momentumKernel(SB), NOSPLIT, $0-48
	MOVSS  lr+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  mu+4(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  wd+8(FP), X2
	SHUFPS $0x00, X2, X2
	XORPS  X7, X7
	MOVQ   p+16(FP), DI
	MOVQ   grad+24(FP), SI
	MOVQ   v+32(FP), R8
	MOVQ   n+40(FP), CX
	CMPB   ·avx512(SB), $0
	JEQ    quads
	VBROADCASTSS lr+0(FP), Z10
	VBROADCASTSS mu+4(FP), Z11
	VBROADCASTSS wd+8(FP), Z12
	VPXORD Z13, Z13, Z13
	SUBQ   $16, CX
	JLT    wideDone
wide:
	VMOVUPS (DI), Z3
	VMULPS  Z12, Z3, Z4
	VADDPS  (SI), Z4, Z5
	VMULPS  Z10, Z5, Z5
	VMULPS  (R8), Z11, Z6
	VSUBPS  Z5, Z6, Z6
	VMOVUPS Z6, (R8)
	VADDPS  Z6, Z3, Z3
	VMOVUPS Z3, (DI)
	VMOVUPS Z13, (SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R8
	SUBQ    $16, CX
	JGE     wide
wideDone:
	ADDQ $16, CX
	VZEROUPPER
quads:
	SUBQ   $4, CX
	JLT    tail

loop:
	MOVUPS (DI), X3
	MOVAPS X3, X4
	MULPS  X2, X4
	MOVUPS (SI), X5
	ADDPS  X4, X5
	MULPS  X0, X5
	MOVUPS (R8), X6
	MULPS  X1, X6
	SUBPS  X5, X6
	MOVUPS X6, (R8)
	ADDPS  X6, X3
	MOVUPS X3, (DI)
	MOVUPS X7, (SI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, R8
	SUBQ   $4, CX
	JGE    loop

tail:
	ADDQ $4, CX
	JEQ  done
one:
	MOVSS  (DI), X3
	MOVAPS X3, X4
	MULSS  X2, X4
	MOVSS  (SI), X5
	ADDSS  X4, X5
	MULSS  X0, X5
	MOVSS  (R8), X6
	MULSS  X1, X6
	SUBSS  X5, X6
	MOVSS  X6, (R8)
	ADDSS  X6, X3
	MOVSS  X3, (DI)
	MOVSS  X7, (SI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, R8
	DECQ   CX
	JNE    one
done:
	RET
