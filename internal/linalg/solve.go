package linalg

import (
	"errors"
	"math"
)

// ErrSingular reports a (numerically) singular matrix in a factorisation.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// cholBlock is the panel width of the blocked Cholesky factorisation and
// triangular inversion: wide enough that the O(n³) work lands in Gemm,
// narrow enough that the scalar panel loops (O(n²·cholBlock)) stay small.
const cholBlock = 32

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A. The input is not modified; only its
// lower triangle is read.
//
// The factorisation is left-looking over cholBlock-wide column panels:
// each panel is updated with everything to its left in one Gemm and then
// factorised by scalar row loops. A pivot that is not positive beyond the
// rounding noise of its own update (n·ε times the diagonal entry it
// started from) reports ErrSingular.
func Cholesky(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky requires a square matrix")
	}
	l := NewMat(a.Rows, a.Rows)
	if err := cholesky(a, l, make([]float64, cholScratch(a.Rows))); err != nil {
		return nil, err
	}
	return l, nil
}

// cholScratch is the length of the scratch cholesky needs for an n×n
// matrix, and invertLower's beyond the first n² elements.
func cholScratch(n int) int {
	nb := min(cholBlock, n)
	return max(n*nb+n*n/4, 2*n*nb+nb*nb)
}

// cholesky writes the Cholesky factor of a to the lower triangle of l and
// leaves the upper triangle of l alone. l may be a itself: a panel of a is
// read before the same panel of l is written, and nothing to its left
// again.
func cholesky(a, l *Mat, scratch []float64) error {
	n := a.Rows
	const eps = 0x1p-52
	// Contiguous copies of the blocks Gemm reads and writes: Mat has no
	// row stride, so a column range of L is copied out, O(n²) per panel.
	panelBuf := scratch[:n*min(cholBlock, n)]
	leftBuf := scratch[len(panelBuf):] // (n−k0)·k0 ≤ n²/4
	for k0 := 0; k0 < n; k0 += cholBlock {
		nb := min(cholBlock, n-k0)
		m := n - k0
		// panel = A[k0:, k0:k0+nb] − L[k0:, :k0]·L[k0:k0+nb, :k0]ᵀ
		panel := &Mat{Rows: m, Cols: nb, Data: panelBuf[:m*nb]}
		copyBlock(panel.Data, nb, a.Data[k0*n+k0:], n, m, nb)
		if k0 > 0 {
			left := &Mat{Rows: m, Cols: k0, Data: leftBuf[:m*k0]}
			copyBlock(left.Data, k0, l.Data[k0*n:], n, m, k0)
			top := &Mat{Rows: nb, Cols: k0, Data: left.Data[:nb*k0]}
			Gemm(NoTrans, Trans, -1, left, top, 1, panel)
		}
		// Row i of the panel needs rows j < nb above it, all finished.
		for i := 0; i < m; i++ {
			row := panel.Data[i*nb : i*nb+nb]
			for j := 0; j < nb && j <= i; j++ {
				rj := panel.Data[j*nb : j*nb+j]
				s := row[j]
				for q, x := range rj {
					s -= row[q] * x
				}
				if j < i {
					row[j] = s / panel.Data[j*nb+j]
					continue
				}
				if !(s > float64(n)*eps*a.Data[(k0+j)*n+k0+j]) {
					return ErrSingular
				}
				row[j] = math.Sqrt(s)
			}
			copy(l.Data[(k0+i)*n+k0:], row[:min(i+1, nb)])
		}
	}
	return nil
}

// copyBlock copies a rows×cols block between row-major storages with row
// strides dstStride and srcStride; dst and src start at the block's first
// element.
func copyBlock(dst []float64, dstStride int, src []float64, srcStride, rows, cols int) {
	for i := 0; i < rows; i++ {
		copy(dst[i*dstStride:i*dstStride+cols], src[i*srcStride:i*srcStride+cols])
	}
}

// invertLower overwrites the lower-triangular l (non-zero diagonal, zero
// upper triangle) with its inverse. Block row I of the inverse is
// L⁻¹[I,I] = L[I,I]⁻¹ by scalar forward substitution and
// L⁻¹[I,:i0] = −L[I,I]⁻¹·L[I,:i0]·L⁻¹[:i0,:i0] by two Gemms; it needs the
// rows of L⁻¹ above it and of L from it on, so it can take the place of
// block row I of L. scratch holds n² + cholScratch(n) elements.
func invertLower(l *Mat, scratch []float64) {
	n := l.Rows
	nbMax := min(cholBlock, n)
	doneBuf, scratch := scratch[:n*n], scratch[n*n:]
	rowBuf, diag := scratch[:2*nbMax*n], scratch[2*nbMax*n:]
	for i0 := 0; i0 < n; i0 += cholBlock {
		nb := min(cholBlock, n-i0)
		// d = L[I,I]⁻¹: column c solves L[I,I]·x = e_c.
		d := &Mat{Rows: nb, Cols: nb, Data: diag[:nb*nb]}
		d.Zero()
		for c := 0; c < nb; c++ {
			for i := c; i < nb; i++ {
				lrow := l.Data[(i0+i)*n+i0 : (i0+i)*n+i0+i]
				var s float64
				if i == c {
					s = 1
				}
				for q := c; q < i; q++ {
					s -= lrow[q] * d.Data[q*nb+c]
				}
				d.Data[i*nb+c] = s / l.Data[(i0+i)*n+i0+i]
			}
		}
		if i0 > 0 {
			lrow := &Mat{Rows: nb, Cols: i0, Data: rowBuf[:nb*i0]}
			copyBlock(lrow.Data, i0, l.Data[i0*n:], n, nb, i0)
			done := &Mat{Rows: i0, Cols: i0, Data: doneBuf[:i0*i0]}
			copyBlock(done.Data, i0, l.Data, n, i0, i0)
			t := &Mat{Rows: nb, Cols: i0, Data: rowBuf[nbMax*n : nbMax*n+nb*i0]}
			Gemm(NoTrans, NoTrans, 1, lrow, done, 0, t)
			Gemm(NoTrans, NoTrans, -1, d, t, 0, lrow)
			copyBlock(l.Data[i0*n:], n, lrow.Data, i0, nb, i0)
		}
		copyBlock(l.Data[i0*n+i0:], n, d.Data, nb, nb, nb)
	}
}

// LU holds a row-pivoted LU factorisation P·A = L·U packed in a single
// matrix (unit lower triangle implicit).
type LU struct {
	lu   *Mat
	piv  []int
	sign int
}

// NewLU factorises a square matrix with partial pivoting.
func NewLU(a *Mat) (*LU, error) {
	if a.Rows != a.Cols {
		panic("linalg: NewLU requires a square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		p := k
		mx := math.Abs(lu.Data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.Data[i*n+k]); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.Data[k*n+k]
		for i := k + 1; i < n; i++ {
			f := lu.Data[i*n+k] / pivVal
			lu.Data[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Data[i*n+j] -= f * lu.Data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b for the factorised A; b has one or more columns.
func (f *LU) Solve(b *Mat) *Mat {
	n := f.lu.Rows
	if b.Rows != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	nrhs := b.Cols
	x := NewMat(n, nrhs)
	for i := 0; i < n; i++ {
		copy(x.Row(i), b.Row(f.piv[i]))
	}
	for c := 0; c < nrhs; c++ {
		for i := 1; i < n; i++ {
			s := x.Data[i*nrhs+c]
			for k := 0; k < i; k++ {
				s -= f.lu.Data[i*n+k] * x.Data[k*nrhs+c]
			}
			x.Data[i*nrhs+c] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := x.Data[i*nrhs+c]
			for k := i + 1; k < n; k++ {
				s -= f.lu.Data[i*n+k] * x.Data[k*nrhs+c]
			}
			x.Data[i*nrhs+c] = s / f.lu.Data[i*n+i]
		}
	}
	return x
}

// Solve solves A·x = b by LU with partial pivoting.
func Solve(a, b *Mat) (*Mat, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
