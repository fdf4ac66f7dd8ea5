package linalg

import (
	"math"
	"sort"
)

// maxQLIter bounds the implicit-shift QL iterations spent on one
// eigenvalue. Convergence is cubic and takes two or three in practice;
// the cap only keeps a pathological input from looping.
const maxQLIter = 30

// EigSym computes the full eigendecomposition of the symmetric matrix a:
// a = V·diag(w)·Vᵀ with eigenvalues w in ascending order and eigenvectors
// in the columns of V. The input is not modified.
//
// The solver is Householder tridiagonalisation followed by implicit-shift
// QL (EISPACK tred2/tql2) on the transposed eigenvector matrix, so every
// O(n³) loop — the rank-2 updates, the accumulation of the Householder
// reflectors and the plane rotations of the QL sweeps — runs over
// contiguous rows.
//
// There is no error return: a matrix with a non-finite entry, or one
// whose QL iteration exceeds maxQLIter on some eigenvalue, yields w and V
// filled with NaN, in O(n²) and bounded time respectively: a failure
// cannot be mistaken for a spectrum, and testing w[0] for NaN detects it
// (scf.RHF turns it into an error after every decomposition it makes).
func EigSym(a *Mat) (w []float64, v *Mat) {
	if a.Rows != a.Cols {
		panic("linalg: EigSym requires a square matrix")
	}
	n := a.Rows
	v = NewMat(n, n)
	if n == 0 {
		return nil, v
	}
	d := make([]float64, n)
	ok := true
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			ok = false
			break
		}
	}
	// vt holds the transposed eigenvector matrix: row j is eigenvector j.
	vt := a.Clone().Data
	if ok {
		e := make([]float64, n)
		tridiagonalize(n, vt, d, e)
		ok = tridiagQL(n, vt, d, e)
	}
	if !ok {
		nan := math.NaN()
		for i := range d {
			d[i] = nan
		}
		for i := range v.Data {
			v.Data[i] = nan
		}
		return d, v
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	w = make([]float64, n)
	for col, src := range idx {
		w[col] = d[src]
		row := vt[src*n : src*n+n]
		for i, x := range row {
			v.Data[i*n+col] = x
		}
	}
	return w, v
}

// tridiagonalize reduces the symmetric matrix stored in m (n×n, row-major;
// only the upper triangle is read) to tridiagonal form by Householder
// similarity transformations. On return d holds the diagonal, e[1:] the
// sub-diagonal (e[0] = 0) and m the transpose Qᵀ of the accumulated
// orthogonal transformation, A = Q·T·Qᵀ.
func tridiagonalize(n int, m, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = m[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = m[j*n+i-1]
				m[j*n+i] = 0
				m[i*n+j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply the similarity transformation to the remaining rows.
			for j := 0; j < i; j++ {
				f = d[j]
				m[i*n+j] = f
				row := m[j*n : j*n+i]
				g = e[j] + row[j]*f
				for k := j + 1; k < i; k++ {
					g += row[k] * d[k]
					e[k] += row[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				row := m[j*n : j*n+i]
				for k := j; k < i; k++ {
					row[k] -= f*e[k] + g*d[k]
				}
				d[j] = row[i-1]
				m[j*n+i] = 0
			}
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		m[i*n+n-1] = m[i*n+i]
		m[i*n+i] = 1
		h := d[i+1]
		hv := m[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			for k := range hv {
				d[k] = hv[k] / h
			}
			for j := 0; j <= i; j++ {
				row := m[j*n : j*n+i+1]
				var g float64
				for k, x := range hv {
					g += x * row[k]
				}
				for k := range row {
					row[k] -= g * d[k]
				}
			}
		}
		for k := range hv {
			hv[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = m[j*n+n-1]
		m[j*n+n-1] = 0
	}
	m[n*n-1] = 1
	e[0] = 0
}

// tridiagQL diagonalises the symmetric tridiagonal matrix (d, e) left by
// tridiagonalize with the implicit-shift QL algorithm, applying every
// plane rotation to two rows of vt. On return d holds the eigenvalues
// (unordered) and row j of vt the eigenvector of d[j]. It reports false
// when an eigenvalue has not converged after maxQLIter iterations.
func tridiagQL(n int, vt, d, e []float64) bool {
	copy(e, e[1:])
	e[n-1] = 0

	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a small sub-diagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == maxQLIter {
				return false
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation.
				lo := vt[i*n : i*n+n]
				hi := vt[(i+1)*n : (i+1)*n+n]
				for k, x := range hi {
					y := lo[k]
					hi[k] = s*y + c*x
					lo[k] = c*y - s*x
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return true
}

// InvSqrtSym returns A^{-1/2} for a symmetric positive-definite matrix,
// computed through the eigendecomposition (the J^{-1/2}_PQ of paper
// Eq. 6). Eigenvalues below dropTol·max(w) are discarded (canonical
// orthogonalisation), which also guards near-linear-dependent auxiliary
// basis sets; the second result is their number.
func InvSqrtSym(a *Mat, dropTol float64) (*Mat, int) {
	w, v := EigSym(a)
	n := a.Rows
	dropped := 0
	wmax := 0.0
	for _, x := range w {
		if x > wmax {
			wmax = x
		}
	}
	half := NewMat(n, n)
	for j := 0; j < n; j++ {
		if w[j] <= dropTol*wmax || w[j] <= 0 {
			dropped++ // the near-null direction
			continue
		}
		s := 1 / math.Sqrt(w[j])
		for i := 0; i < n; i++ {
			half.Data[i*n+j] = v.Data[i*n+j] * s
		}
	}
	return MatMul(NoTrans, Trans, half, v), dropped
}
