package linalg

// Assembly entry point (microkernel_amd64.s): computes the full 6×8
// tile C += alpha·Ap·Bp on a row-major C with stride ldc doubles; edge
// masking is handled here in the wrapper, never in asm.

//go:noescape
func kernel6x8F64(kc int64, pa, pb *float64, alpha float64, c *float64, ldc int64)

// avx2Kernel is the amd64 AVX2/FMA implementation, installed by the
// cpu_amd64.go feature probe when AVX2+FMA are present and the OS has
// enabled ymm state. Blocking chosen by measurement (the driver repacks
// B per macro-tile, so tall mc tiles — fewer B repacks per column strip
// — beat the classic L2-sized square tile here): mc=384 is 64 whole
// 6-row micro-panels.
var avx2Kernel = kernelImpl{
	name: "avx2-6x8",
	mr:   6, nr: 8,
	mc: 384, kc: 256, nc: 256,
	kern: microKernelAVX2F64,
}

// microKernelAVX2F64 adapts the asm ABI to the microKernel contract.
// Full tiles write straight into C; edge tiles (me<6 or ne<8, from the
// zero-padded packed panels) are computed into a zeroed scratch tile —
// which then holds exactly alpha·acc — and the valid me×ne corner is
// added back under a mask. The scratch stays on the stack (no escape:
// the pointer passed to asm is noescape).
func microKernelAVX2F64(kc int, pa, pb []float64, alpha float64, c *Mat, i0, j0, me, ne int) {
	if me == 6 && ne == 8 {
		kernel6x8F64(int64(kc), &pa[0], &pb[0], alpha, &c.Data[i0*c.Cols+j0], int64(c.Cols))
		return
	}
	var tile [48]float64
	kernel6x8F64(int64(kc), &pa[0], &pb[0], alpha, &tile[0], 8)
	for r := 0; r < me; r++ {
		row := c.Row(i0 + r)
		for s := 0; s < ne; s++ {
			row[j0+s] += tile[r*8+s]
		}
	}
}
