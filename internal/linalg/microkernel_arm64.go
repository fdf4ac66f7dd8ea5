package linalg

// Assembly entry point (microkernel_arm64.s): computes the full 8×4
// tile C += alpha·Ap·Bp on a row-major C with stride ldc doubles; edge
// masking is handled here in the wrapper, never in asm.

//go:noescape
func kernel8x4F64(kc int64, pa, pb *float64, alpha float64, c *float64, ldc int64)

// neonKernel is the arm64 NEON implementation, installed
// unconditionally by cpu_arm64.go (ASIMD is architectural baseline on
// arm64). mc=128 keeps macro-tiles in whole 8-row micro-panels; kc/nc
// match the portable kernel.
var neonKernel = kernelImpl{
	name: "neon-8x4",
	mr:   8, nr: 4,
	mc: 128, kc: 256, nc: 256,
	kern: microKernelNEONF64,
}

// microKernelNEONF64 adapts the asm ABI to the microKernel contract. Full tiles write straight into C; edge tiles are computed
// into a zeroed scratch tile — which then holds exactly alpha·acc —
// and the valid me×ne corner is added back under a mask.
func microKernelNEONF64(kc int, pa, pb []float64, alpha float64, c *Mat, i0, j0, me, ne int) {
	if me == 8 && ne == 4 {
		kernel8x4F64(int64(kc), &pa[0], &pb[0], alpha, &c.Data[i0*c.Cols+j0], int64(c.Cols))
		return
	}
	var tile [32]float64
	kernel8x4F64(int64(kc), &pa[0], &pb[0], alpha, &tile[0], 4)
	for r := 0; r < me; r++ {
		row := c.Row(i0 + r)
		for s := 0; s < ne; s++ {
			row[j0+s] += tile[r*4+s]
		}
	}
}
