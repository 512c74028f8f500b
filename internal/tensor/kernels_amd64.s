#include "textflag.h"

// Four-lane bodies of the axpy, GEMM and momentum kernels (DESIGN.md
// §13, "Four lanes, the same roundings"). SSE2 only, the amd64
// baseline: each lane is a different output element, every packed
// MULPS/ADDPS/SUBPS rounds each lane once exactly as the scalar
// MULSS/ADDSS/SUBSS of the Go loops in kernels_generic.go do, and no
// instruction fuses a multiply with an add. The n%4 tail runs the same
// sequence on one lane. The Go wrappers in tensor.go check every bound
// before a pointer gets here.

// func axpyKernel(alpha float32, x, y *float32, n int)
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DI
	MOVQ   n+24(FP), CX
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

// func groupedSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int)
//
// c[j] += ((a0*b0[j] + a1*b1[j]) + a2*b2[j]) + a3*b3[j], row bq at b+q*stride.
TEXT ·groupedSumKernel(SB), NOSPLIT, $0-48
	MOVSS  a0+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  a1+4(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  a2+8(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  a3+12(FP), X3
	SHUFPS $0x00, X3, X3
	MOVQ   b+16(FP), SI
	MOVQ   stride+24(FP), DX
	SHLQ   $2, DX
	LEAQ   (SI)(DX*2), R8   // row 2; rows 1 and 3 are SI+DX and R8+DX
	MOVQ   c+32(FP), DI
	MOVQ   n+40(FP), CX
	SUBQ   $4, CX
	JLT    tail

loop:
	MOVUPS (SI), X4
	MULPS  X0, X4
	MOVUPS (SI)(DX*1), X5
	MULPS  X1, X5
	MOVUPS (R8), X6
	MULPS  X2, X6
	MOVUPS (R8)(DX*1), X7
	MULPS  X3, X7
	ADDPS  X5, X4
	ADDPS  X6, X4
	ADDPS  X7, X4
	MOVUPS (DI), X8
	ADDPS  X4, X8
	MOVUPS X8, (DI)
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, DI
	SUBQ   $4, CX
	JGE    loop

tail:
	ADDQ $4, CX
	JEQ  done
one:
	MOVSS (SI), X4
	MULSS X0, X4
	MOVSS (SI)(DX*1), X5
	MULSS X1, X5
	MOVSS (R8), X6
	MULSS X2, X6
	MOVSS (R8)(DX*1), X7
	MULSS X3, X7
	ADDSS X5, X4
	ADDSS X6, X4
	ADDSS X7, X4
	MOVSS (DI), X8
	ADDSS X4, X8
	MOVSS X8, (DI)
	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, DI
	DECQ  CX
	JNE   one
done:
	RET

// func runningSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int)
//
// s := c[j] + a0*b0[j]; s += a1*b1[j]; s += a2*b2[j]; c[j] = s + a3*b3[j],
// row bq at b+q*stride.
TEXT ·runningSumKernel(SB), NOSPLIT, $0-48
	MOVSS  a0+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  a1+4(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  a2+8(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  a3+12(FP), X3
	SHUFPS $0x00, X3, X3
	MOVQ   b+16(FP), SI
	MOVQ   stride+24(FP), DX
	SHLQ   $2, DX
	LEAQ   (SI)(DX*2), R8   // row 2; rows 1 and 3 are SI+DX and R8+DX
	MOVQ   c+32(FP), DI
	MOVQ   n+40(FP), CX
	SUBQ   $4, CX
	JLT    tail

loop:
	MOVUPS (SI), X5
	MULPS  X0, X5
	MOVUPS (SI)(DX*1), X6
	MULPS  X1, X6
	MOVUPS (R8), X7
	MULPS  X2, X7
	MOVUPS (R8)(DX*1), X8
	MULPS  X3, X8
	MOVUPS (DI), X4
	ADDPS  X5, X4
	ADDPS  X6, X4
	ADDPS  X7, X4
	ADDPS  X8, X4
	MOVUPS X4, (DI)
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, DI
	SUBQ   $4, CX
	JGE    loop

tail:
	ADDQ $4, CX
	JEQ  done
one:
	MOVSS (SI), X5
	MULSS X0, X5
	MOVSS (SI)(DX*1), X6
	MULSS X1, X6
	MOVSS (R8), X7
	MULSS X2, X7
	MOVSS (R8)(DX*1), X8
	MULSS X3, X8
	MOVSS (DI), X4
	ADDSS X5, X4
	ADDSS X6, X4
	ADDSS X7, X4
	ADDSS X8, X4
	MOVSS X4, (DI)
	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, DI
	DECQ  CX
	JNE   one
done:
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
