//go:build !noasm

// SSE multi-row scoring kernel (DESIGN.md §16): out[j] = p·q_j for
// len(out) consecutive Q rows of stride len(p).
//
// Every score is bit-identical to Dot(p, q_j) for every k, by the same
// lane argument as updateOneVec:
//
//   - Each row has its own XMM accumulator whose four lanes are exactly
//     Dot's four partial sums (lane j gets elements j, j+4, j+8, …); the
//     scalar tail of k%4 elements adds into lane 0, Dot's s0.
//   - Rows are independent, so scoring four of them per step only
//     interleaves four separate chains; no row's summation order moves.
//   - Each row's lanes are reduced in Dot's order ((s0+s1)+s2)+s3, never
//     with HADDPS, whose pairing reorders the sum. Four rows are reduced
//     together: a 4×4 transpose (UNPCKLPS/UNPCKHPS, MOVLHPS/MOVHLPS)
//     turns the accumulators into vectors of the rows' s0, s1, s2 and s3,
//     and three ADDPS finish the fold in every lane at once. A lone
//     remainder row uses updateOneVec's scalar SHUFPS/ADDSS fold.
//
// NaN payloads are outside the contract: when two NaNs meet, SSE keeps
// the destination operand's, and which operand that is in Dot is the
// compiler's register choice, which differs between normal, -race and
// -fuzz builds. The kernel only guarantees NaN where Dot gives NaN.
//
// ABI0 frame (asmdecl-checked): p_base+0 p_len+8 p_cap+16 / q_base+24
// q_len+32 q_cap+40 / out_base+48 out_len+56 out_cap+64 → $0-72. Callers
// guarantee len(q) >= len(out)*len(p); only p_len and out_len drive the
// loops.

#include "textflag.h"

// MAC4 adds the packed product of X4 (p) and the four floats at row+AX
// into acc. Clobbers t.
#define MAC4(row, acc, t) \
	MOVUPS (row)(AX*1), t; \
	MULPS  X4, t; \
	ADDPS  t, acc

// MAC1 adds the scalar product of p and row at byte offset AX into lane 0
// of acc. Clobbers X5.
#define MAC1(row, acc) \
	MOVSS (SI)(AX*1), X5; \
	MULSS (row)(AX*1), X5; \
	ADDSS X5, acc

// func scoreRowsVec(p, q, out []float32)
TEXT ·scoreRowsVec(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R12
	MOVQ CX, R8
	SHLQ $2, R8 // row stride in bytes

quadrows:
	CMPQ  R12, $4
	JLT   singlerows
	LEAQ  (DI)(R8*1), R9
	LEAQ  (R9)(R8*1), R10
	LEAQ  (R10)(R8*1), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    quadtail

quadloop:
	MOVUPS (SI)(AX*1), X4
	MAC4(DI, X0, X5)
	MAC4(R9, X1, X6)
	MAC4(R10, X2, X7)
	MAC4(R11, X3, X8)
	ADDQ   $16, AX
	DECQ   BX
	JNZ    quadloop

quadtail:
	MOVQ CX, BX
	ANDQ $3, BX
	JZ   quadfold

quadtailloop:
	MAC1(DI, X0)
	MAC1(R9, X1)
	MAC1(R10, X2)
	MAC1(R11, X3)
	ADDQ $4, AX
	DECQ BX
	JNZ  quadtailloop

quadfold:
	// Transpose rows a..d (X0..X3) into X6 = s0s, X5 = s1s, X7 = s2s,
	// X2 = s3s, then fold lanewise.
	MOVAPS   X0, X4
	UNPCKLPS X1, X4 // a0 b0 a1 b1
	MOVAPS   X2, X5
	UNPCKLPS X3, X5 // c0 d0 c1 d1
	UNPCKHPS X1, X0 // a2 b2 a3 b3
	UNPCKHPS X3, X2 // c2 d2 c3 d3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6 // a0 b0 c0 d0
	MOVHLPS  X4, X5 // a1 b1 c1 d1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7 // a2 b2 c2 d2
	MOVHLPS  X0, X2 // a3 b3 c3 d3
	ADDPS    X5, X6
	ADDPS    X7, X6
	ADDPS    X2, X6
	MOVUPS   X6, (DX)
	ADDQ $16, DX
	LEAQ (R11)(R8*1), DI
	SUBQ $4, R12
	JMP  quadrows

singlerows:
	TESTQ R12, R12
	JZ    done

singlerow:
	XORPS X0, X0
	XORQ  AX, AX
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    singletail

singleloop:
	MOVUPS (SI)(AX*1), X4
	MAC4(DI, X0, X5)
	ADDQ   $16, AX
	DECQ   BX
	JNZ    singleloop

singletail:
	MOVQ CX, BX
	ANDQ $3, BX
	JZ   singlefold

singletailloop:
	MAC1(DI, X0)
	ADDQ $4, AX
	DECQ BX
	JNZ  singletailloop

singlefold:
	// Ordered scalar fold ((s0+s1)+s2)+s3, as in updateOneVec.
	MOVAPS X0, X6
	MOVAPS X0, X5
	SHUFPS $0x1, X5, X5
	ADDSS  X5, X6
	MOVAPS X0, X5
	SHUFPS $0x2, X5, X5
	ADDSS  X5, X6
	MOVAPS X0, X5
	SHUFPS $0x3, X5, X5
	ADDSS  X5, X6
	MOVSS  X6, (DX)
	ADDQ $4, DX
	ADDQ R8, DI
	DECQ R12
	JNZ  singlerow

done:
	RET
