package linalg

// Assembly entry point (microkernel_amd64.s): computes the full 6×8
// tile C += alpha·A·B on a row-major C with stride ldc doubles, reading
// A(r, l) at pa[r*rsA+l*csA] and B(l, 0:8) at pb[l*csB:]; with store
// set it overwrites C with alpha·A·B instead. Edge masking is handled
// here in the wrapper, never in asm.

//go:noescape
func kernel6x8F64(kc int64, pa, pb *float64, alpha float64, c *float64, ldc, rsA, csA, csB int64, store bool)

// avx2Kernel is the amd64 AVX2/FMA implementation, installed by the
// cpu_amd64.go feature probe when AVX2+FMA are present and the OS has
// enabled ymm state. Blocking chosen by measurement (the driver repacks
// B per macro-tile, so tall mc tiles — fewer B repacks per column strip
// — beat the classic L2-sized square tile here): mc=384 is 64 whole
// 6-row micro-panels. It reads strided operands, so gemmPacked points
// it at the full panels of skinny products instead of packing them.
var avx2Kernel = kernelImpl{
	name: "avx2-6x8",
	mr:   6, nr: 8,
	mc: 384, kc: 256, nc: 256,
	strided: microKernelAVX2F64,
}

// microKernelAVX2F64 adapts the asm ABI to the stridedKernel contract.
// The two blank reads bound the last element the asm will touch in
// each operand, so a bad panel panics here instead of reading past it.
// Full tiles write straight into C; edge tiles (me<6 or ne<8, from
// zero-padded packed panels) are computed into a tile on the stack —
// which then holds exactly 0 + alpha·acc — and the valid me×ne corner
// is added back (or, under store, copied) under a mask. The tile
// stays on the stack (no escape: the pointer passed to asm is
// noescape).
func microKernelAVX2F64(kc int, pa []float64, rsA, csA int, pb []float64, csB int, alpha float64, store bool, c *Mat, i0, j0, me, ne int) {
	_ = pa[5*rsA+(kc-1)*csA]
	_ = pb[(kc-1)*csB+7]
	if me == 6 && ne == 8 {
		kernel6x8F64(int64(kc), &pa[0], &pb[0], alpha, &c.Data[i0*c.Cols+j0], int64(c.Cols),
			int64(rsA), int64(csA), int64(csB), store)
		return
	}
	var tile [48]float64
	kernel6x8F64(int64(kc), &pa[0], &pb[0], alpha, &tile[0], 8, int64(rsA), int64(csA), int64(csB), true)
	for r := 0; r < me; r++ {
		row := c.Row(i0 + r)[j0 : j0+ne]
		t := tile[r*8 : r*8+ne]
		if store {
			copy(row, t)
			continue
		}
		for s, v := range t {
			row[s] += v
		}
	}
}
