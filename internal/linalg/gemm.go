package linalg

import "sync/atomic"

// Transpose selects whether a GEMM operand is used as-is or transposed.
type Transpose bool

// Operand orientations for Gemm.
const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

func (t Transpose) String() string {
	if t {
		return "T"
	}
	return "N"
}

// Variant identifies one of the four GEMM algorithmic variants
// (paper Table IV): the orientation pair of the two operands.
type Variant int

// The four GEMM variants.
const (
	VariantNN Variant = iota
	VariantNT
	VariantTN
	VariantTT
)

var variantNames = [...]string{"NN", "NT", "TN", "TT"}

func (v Variant) String() string { return variantNames[v] }

// VariantOf returns the variant matching an orientation pair.
func VariantOf(tA, tB Transpose) Variant {
	switch a, b := bool(tA), bool(tB); {
	case !a && !b:
		return VariantNN
	case !a && b:
		return VariantNT
	case a && !b:
		return VariantTN
	default:
		return VariantTT
	}
}

// flopCount accumulates 2·m·n·k for every GEMM call, mirroring the
// paper's runtime FLOP measurement mechanism (§VI-C). It deliberately
// counts only GEMM work. Note the streaming kernels skip inner updates
// whose A element is exactly zero (the av == 0 fast path), so per call
// the counter is an *upper bound* on the multiply-adds actually
// executed; for the dense operands of the chemistry kernels the two
// coincide to within noise.
var flopCount atomic.Int64

// FLOPs returns the GEMM floating-point operations counted so far.
func FLOPs() int64 { return flopCount.Load() }

// ResetFLOPs zeroes the global GEMM FLOP counter and returns the
// previous value.
func ResetFLOPs() int64 { return flopCount.Swap(0) }

// parallelThreshold is the m*n*k product above which Gemm fans work out
// across goroutines (Parallel).
const parallelThreshold = 1 << 17

// Kernel selects the execution engine for a GEMM call.
type Kernel int

// The available GEMM engines.
const (
	// KernelAuto picks between streaming and packed by a size
	// heuristic: small problems run the streaming loops (no packing
	// cost), larger ones the packed engine, and a single-column product
	// a plain matrix–vector loop.
	KernelAuto Kernel = iota
	// KernelStream runs the four variant streaming loops (the original
	// engine): no operand copies, loop order chosen by variant.
	KernelStream
	// KernelPacked runs the packed, cache-tiled, register-blocked
	// engine: operands are packed into contiguous micro-panels (the
	// transpose folds into the pack, so all four variants reach one
	// micro-kernel), then an mr×nr register block sweeps kc panels.
	KernelPacked
)

var kernelNames = [...]string{"auto", "stream", "packed"}

func (k Kernel) String() string { return kernelNames[k] }

// packedThreshold is the m*n*k product above which KernelAuto prefers
// the packed engine when only the portable micro-kernel is available:
// below it the O(mk + kn) packing traffic is not amortised by the
// O(mnk) arithmetic.
const packedThreshold = 1 << 15

// packedThresholdAsm is the KernelAuto crossover when an assembly
// micro-kernel is active. A ~5× faster inner kernel moves the packing
// break-even down, not up: packing cost is O(mk+kn) either way, but the
// streaming alternative's arithmetic got no faster, so the packed
// engine wins earlier. Measured on AVX2: the packed engine already wins
// 24³ decisively; 2·16³ ≈ the true break-even within noise.
// TestPackedCrossoverRearbitrates (asm_test.go) pins the switch.
const packedThresholdAsm = 1 << 13

// packedCrossover returns the live KernelAuto stream→packed crossover,
// re-arbitrated for the active micro-kernel (satellite: the break-even
// moves when the asm kernel is installed and enabled).
func packedCrossover() int64 {
	if AsmEnabled() {
		return packedThresholdAsm
	}
	return packedThreshold
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C where op is controlled by
// tA and tB, choosing the engine automatically. Dimensions: op(A) is
// m×k, op(B) is k×n, C is m×n. The work is counted as 2·m·n·k FLOPs in
// the global counter.
func Gemm(tA, tB Transpose, alpha float64, a, b *Mat, beta float64, c *Mat) {
	gemm(KernelAuto, Procs(), tA, tB, alpha, a, b, beta, c)
}

// GemmInline is Gemm on the calling goroutine alone, at any size: the
// product of one piece of a Parallel call, which must not fan out a
// second time. Tiles and row ranges own disjoint elements of C, so its
// result is Gemm's bit for bit.
func GemmInline(tA, tB Transpose, alpha float64, a, b *Mat, beta float64, c *Mat) {
	gemm(KernelAuto, 1, tA, tB, alpha, a, b, beta, c)
}

// GemmKernel is Gemm with an explicit engine choice. KernelAuto applies
// the size heuristic; KernelStream and KernelPacked force their engine
// (used by the autotuner's per-shape arbitration and the benchmarks).
func GemmKernel(kern Kernel, tA, tB Transpose, alpha float64, a, b *Mat, beta float64, c *Mat) {
	gemm(kern, Procs(), tA, tB, alpha, a, b, beta, c)
}

// gemm is GemmKernel on at most workers goroutines.
func gemm(kern Kernel, workers int, tA, tB Transpose, alpha float64, a, b *Mat, beta float64, c *Mat) {
	m, k := a.Rows, a.Cols
	if tA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if tB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb {
		panic("linalg: Gemm inner dimension mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("linalg: Gemm output dimension mismatch")
	}
	work := int64(m) * int64(n) * int64(k)
	flopCount.Add(2 * work)

	matvec := kern == KernelAuto && n == 1
	if kern == KernelAuto && !matvec {
		kern = KernelStream
		if work > packedCrossover() {
			kern = KernelPacked
		}
	}
	// β = 0 reaches the packed engine as a store on each tile's first
	// k-panel (gemmPacked); every other path clears C first.
	store := beta == 0 && kern == KernelPacked && work != 0 && alpha != 0
	switch {
	case beta == 0:
		if !store {
			c.Zero()
		}
	case beta != 1:
		c.Scale(beta)
	}
	if work == 0 || alpha == 0 {
		return
	}

	if matvec {
		// A k×1 and a 1×k operand are the same k contiguous values.
		gemv(tA, alpha, a, b.Data, c.Data)
		return
	}
	if kern == KernelPacked {
		gemmPacked(tA, tB, alpha, a, b, c, store, workers)
		return
	}

	// Above parallelThreshold (only KernelStream gets here with that
	// much work) the rows are split into min(workers, m) equal ranges.
	nw := 1
	if work > parallelThreshold {
		nw = min(workers, m)
	}
	if nw <= 1 {
		gemmRange(tA, tB, alpha, a, b, c, 0, m)
		return
	}
	Parallel(m, (m+nw-1)/nw, nw, func(lo, hi int) { gemmRange(tA, tB, alpha, a, b, c, lo, hi) })
}

// gemv computes y += alpha·op(A)·x, the matrix–vector case KernelAuto
// keys statically: one dot product per row of A, or for Aᵀ one axpy per
// row, both over contiguous memory. The packed engine would pad the
// single column to a full nr-wide panel after packing all of A, and the
// streaming loops would run an inner loop of length one. The four
// partial sums of a dot product are a fixed function of the row length.
func gemv(tA Transpose, alpha float64, a *Mat, x, y []float64) {
	if tA {
		y = y[:a.Cols]
		for l, xv := range x {
			f := alpha * xv
			if f == 0 {
				continue
			}
			row := a.Row(l)[:len(y)]
			i := 0
			for ; i+4 <= len(row); i += 4 {
				r, yi := row[i:i+4:i+4], y[i:i+4:i+4]
				yi[0] += f * r[0]
				yi[1] += f * r[1]
				yi[2] += f * r[2]
				yi[3] += f * r[3]
			}
			for ; i < len(row); i++ {
				y[i] += f * row[i]
			}
		}
		return
	}
	x = x[:a.Cols]
	for i := range y {
		row := a.Row(i)[:len(x)]
		var s0, s1, s2, s3 float64
		l := 0
		for ; l+4 <= len(row); l += 4 {
			r, xl := row[l:l+4:l+4], x[l:l+4:l+4]
			s0 += r[0] * xl[0]
			s1 += r[1] * xl[1]
			s2 += r[2] * xl[2]
			s3 += r[3] * xl[3]
		}
		for ; l < len(row); l++ {
			s0 += row[l] * x[l]
		}
		y[i] += alpha * ((s0 + s1) + (s2 + s3))
	}
}

// gemmRange dispatches rows [lo,hi) of C to the variant kernel.
func gemmRange(tA, tB Transpose, alpha float64, a, b, c *Mat, lo, hi int) {
	switch VariantOf(tA, tB) {
	case VariantNN:
		gemmNN(alpha, a, b, c, lo, hi)
	case VariantNT:
		gemmNT(alpha, a, b, c, lo, hi)
	case VariantTN:
		gemmTN(alpha, a, b, c, lo, hi)
	default:
		gemmTT(alpha, a, b, c, lo, hi)
	}
}

// gemmNN: C += alpha·A·B. Streams rows of B with an i-k-j loop order,
// which is cache-friendly for row-major operands — typically the fastest
// variant for square-ish shapes.
func gemmNN(alpha float64, a, b, c *Mat, lo, hi int) {
	n := c.Cols
	k := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for l := 0; l < k; l++ {
			av := alpha * arow[l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*n : l*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmNT: C += alpha·A·Bᵀ. Pure dot products of contiguous rows — the
// best variant when k is very large and m, n small (the "tall-skinny"
// contraction shapes of RI-MP2, cf. Table IV row 1).
func gemmNT(alpha float64, a, b, c *Mat, lo, hi int) {
	n := c.Cols
	k := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : j*k+k]
			var s float64
			for l, av := range arow {
				s += av * brow[l]
			}
			crow[j] += alpha * s
		}
	}
}

// tnBlock is the k-panel height for the TN kernel.
const tnBlock = 64

// gemmTN: C += alpha·Aᵀ·B. Both operands are traversed row-by-row in a
// k-outer accumulation, so all reads are contiguous; the variant of
// choice when m and n are small relative to k (Table IV rows 2–3).
func gemmTN(alpha float64, a, b, c *Mat, lo, hi int) {
	n := c.Cols
	k := a.Rows // op(A) is m×k with A stored k×m
	for l0 := 0; l0 < k; l0 += tnBlock {
		l1 := l0 + tnBlock
		if l1 > k {
			l1 = k
		}
		for l := l0; l < l1; l++ {
			arow := a.Row(l)
			brow := b.Data[l*n : l*n+n]
			for i := lo; i < hi; i++ {
				av := alpha * arow[i]
				if av == 0 {
					continue
				}
				crow := c.Row(i)
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// gemmTT: C += alpha·Aᵀ·Bᵀ. Strided reads of both operands; kept
// deliberately simple — like the vendor libraries in Table IV, TT is the
// slowest variant for most shapes, which is exactly what gives the
// auto-tuner something to avoid.
func gemmTT(alpha float64, a, b, c *Mat, lo, hi int) {
	n := c.Cols
	k := a.Rows
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a.Data[l*a.Cols+i] * b.Data[j*b.Cols+l]
			}
			crow[j] += alpha * s
		}
	}
}

// MatMul returns op(A)·op(B) as a fresh matrix (alpha=1, beta=0).
func MatMul(tA, tB Transpose, a, b *Mat) *Mat {
	m := a.Rows
	if tA {
		m = a.Cols
	}
	n := b.Cols
	if tB {
		n = b.Rows
	}
	c := NewMat(m, n)
	Gemm(tA, tB, 1, a, b, 0, c)
	return c
}
