#include "textflag.h"

// func probe() (f, dq bool)
//
// f: CPUID leaf 7 reports AVX512F and XCR0 enables the SSE, AVX,
// opmask and both ZMM states (bits 1, 2, 5, 6, 7), so the OS saves
// them. dq: f, and leaf 7 reports AVX512DQ.
TEXT ·probe(SB), NOSPLIT, $0-2
	MOVB  $0, f+0(FP)
	MOVB  $0, dq+1(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	CPUID
	BTL   $27, CX // OSXSAVE: XGETBV is available
	JCC   no
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $16, BX // AVX512F
	JCC   no
	MOVB  $1, f+0(FP)
	BTL   $17, BX // AVX512DQ
	JCC   no
	MOVB  $1, dq+1(FP)
no:
	RET
