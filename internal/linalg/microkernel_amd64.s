#include "textflag.h"

// AVX2/FMA 6×8 micro-kernel. See DESIGN.md §11 for the ABI contract
// and register allocation.
//
// The kernel computes C[0:6, 0:8] += alpha · A·B on a row-major C with
// stride ldc, reading its operands through element strides:
//
//	A(r, l) = pa[r*rsA + l*csA]   (6 rows of one A micro-panel)
//	B(l, s) = pb[l*csB + s]       (8 contiguous columns per k-step)
//
// A packed pair (pack.go) is the case rsA = 1, csA = 6, csB = 8;
// gemmPacked also points the kernel at the operands themselves, NN A as
// (rsA, csA) = (lda, 1), TN A as (1, lda), B as csB = ldb. With store
// set, C is not read: each row becomes alpha·acc FMA'd onto a zeroed
// register, bit for bit what the accumulating path gives on a cleared
// C — the β = 0 case.
//
// The full 6×8 tile is always computed and written — edge masking is
// the Go wrapper's job (it redirects the write into a scratch tile).
// kc ≥ 1 is required (guaranteed: the packed driver never emits empty
// panels).
//
// Register allocation:
//
//	Y0..Y11   6×8 accumulator block, row r in Y(2r) | Y(2r+1)
//	Y12, Y13  one k-step of B (8 doubles)
//	Y14       broadcast of one A element; alpha at write-back
//	Y15       C row staging at write-back
//	SI, R12   A rows 0–2 and rows 3–5 (R12 = SI + 3·rsA), each row
//	          r = base + {0, 1, 2}·R9
//	R9        rsA in bytes
//	R10       csA in bytes: the k-step of SI and R12
//	R11       csB in bytes: the k-step of DI
//
// Per k-step: 2 B loads + 6 A broadcasts + 12 FMAs = 96 flops. All 16
// ymm registers are live — 6×8 is the widest spill-free f64 shape on
// AVX2.

// func kernel6x8F64(kc int64, pa, pb *float64, alpha float64, c *float64, ldc, rsA, csA, csB int64, store bool)
TEXT ·kernel6x8F64(SB), NOSPLIT, $0-73
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	MOVQ rsA+48(FP), R9
	MOVQ csA+56(FP), R10
	MOVQ csB+64(FP), R11
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R9)(R9*2), R12
	ADDQ SI, R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop64:
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VBROADCASTSD (SI), Y14
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VBROADCASTSD (SI)(R9*1), Y14
	VFMADD231PD Y12, Y14, Y2
	VFMADD231PD Y13, Y14, Y3
	VBROADCASTSD (SI)(R9*2), Y14
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VBROADCASTSD (R12), Y14
	VFMADD231PD Y12, Y14, Y6
	VFMADD231PD Y13, Y14, Y7
	VBROADCASTSD (R12)(R9*1), Y14
	VFMADD231PD Y12, Y14, Y8
	VFMADD231PD Y13, Y14, Y9
	VBROADCASTSD (R12)(R9*2), Y14
	VFMADD231PD Y12, Y14, Y10
	VFMADD231PD Y13, Y14, Y11
	ADDQ R10, SI
	ADDQ R10, R12
	ADDQ R11, DI
	DECQ CX
	JNZ  loop64

	VBROADCASTSD alpha+24(FP), Y14
	SHLQ $3, R8
	MOVBQZX store+72(FP), AX
	TESTQ AX, AX
	JNZ  storeC

	// C[r, 0:8] += alpha · acc[r], rows advanced by ldc doubles.
	VMOVUPD (DX), Y15
	VFMADD231PD Y0, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y1, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y2, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y3, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y4, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y5, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y6, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y7, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y8, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y9, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y10, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y11, Y14, Y15
	VMOVUPD Y15, 32(DX)

	VZEROUPPER
	RET

	// C[r, 0:8] = 0 + alpha · acc[r]: the same FMA onto a zeroed
	// register instead of the loaded row.
storeC:
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y0, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y1, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VXORPD Y15, Y15, Y15
	VFMADD231PD Y2, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y3, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VXORPD Y15, Y15, Y15
	VFMADD231PD Y4, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y5, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VXORPD Y15, Y15, Y15
	VFMADD231PD Y6, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y7, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VXORPD Y15, Y15, Y15
	VFMADD231PD Y8, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y9, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VXORPD Y15, Y15, Y15
	VFMADD231PD Y10, Y14, Y15
	VMOVUPD Y15, (DX)
	VXORPD Y15, Y15, Y15
	VFMADD231PD Y11, Y14, Y15
	VMOVUPD Y15, 32(DX)

	VZEROUPPER
	RET
