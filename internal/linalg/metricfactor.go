package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

const (
	// metricBlock is the number of vectors the inverse subspace iteration
	// of MetricFactor starts with. One sweep costs about the same for any
	// block up to two dozen vectors (its two n×n×b products are bound by
	// packing L⁻¹, not by arithmetic), so the block is a little larger
	// than the handful of directions a metric drops; 12 fills whole
	// micro-panels of both the 4- and the 6-row GEMM kernels.
	metricBlock = 12
	// metricGuard is the number of Ritz pairs on the kept side of the drop
	// threshold the block must hold; with fewer it doubles. The last
	// dropped pair converges at the rate of the first eigenvalue outside
	// the block against its own, so the block has to reach past the
	// threshold.
	metricGuard = 3
	// metricMaxIter caps the subspace iterations, over all block sizes.
	metricMaxIter = 60
	// metricResTol is the relative residual ‖A⁻¹x − θx‖ ≤ metricResTol·θ
	// at which a Ritz pair counts as converged. It bounds the tilt of a
	// dropped direction towards its kept neighbours; ε·λmax over the gap
	// between two eigenvalues near 1e-10·λmax already tilts them by 1e-5
	// in any solver, so anything much tighter buys sweeps, not accuracy.
	metricResTol = 1e-7
	// lanczosMaxIter caps the Lanczos steps spent on the largest
	// eigenvalue, and lanczosResTol is the relative residual they stop
	// at early.
	lanczosMaxIter = 64
	lanczosResTol  = 1e-6
)

// ErrNoConvergence reports an iteration that did not reach its tolerance
// within its iteration cap.
var ErrNoConvergence = errors.New("linalg: iteration did not converge")

// MetricFactor returns an n×n factor W of the pseudo-inverse of the
// symmetric positive-definite matrix a, WᵀW = A⁺, where A⁺ inverts a on
// the span of its eigenvectors with eigenvalue above dropTol·λmax and is
// zero on the rest — the same pseudo-inverse as InvSqrtSym(a, dropTol)²
// (canonical orthogonalisation), without the full eigendecomposition. W is
// not symmetric (W·A·Wᵀ is an orthogonal projector of rank n − dropped),
// so W belongs on the quantities A is the metric of and Wᵀ on what was
// fitted with them. dropped is the number of eigen-directions projected
// out.
//
// The route is GEMM-shaped: Cholesky A = L·Lᵀ, L⁻¹ by blocked triangular
// inversion, λmax by Lanczos, the few eigenvectors V under the threshold
// by inverse subspace iteration through L⁻¹ (the Ritz values come from the
// Gram matrix (L⁻¹X)ᵀ(L⁻¹X), so the large eigenvalues of A⁻¹ — the small
// ones of A — keep their relative accuracy), and W = L⁻¹·(I − V·Vᵀ). That
// V holds every direction under the threshold is not left to the
// iteration's own convergence test: a second Cholesky factorisation, of a
// with the converged directions shifted out of the way and the threshold
// subtracted, succeeds only if nothing else lies under it (smallEigvecs).
// Every start vector is a fixed function of a, so equal inputs give
// bit-equal outputs.
//
// The error is ErrSingular when a is not positive definite to working
// precision or holds a non-finite entry (InvSqrtSym still handles the
// first), and wraps ErrNoConvergence when the subspace iteration runs
// into its cap, which takes eigenvalues clustered at the threshold.
func MetricFactor(a *Mat, dropTol float64) (w *Mat, dropped int, err error) {
	if a.Rows != a.Cols {
		panic("linalg: MetricFactor requires a square matrix")
	}
	n := a.Rows
	w = NewMat(n, n)
	// One n×n scratch matrix and the factorisations' panel buffers behind
	// it, for L, L⁻¹ and the certificate of smallEigvecs in turn.
	scratch := make([]float64, n*n+cholScratch(n))
	if err := cholesky(a, w, scratch[n*n:]); err != nil {
		return nil, 0, err
	}
	invertLower(w, scratch)
	if dropTol > 0 && a.Rows > 0 {
		// λmax lies in [lmax, lmax+slack]: directions are dropped at or
		// under the lower threshold and certified absent up to the upper.
		lmax, slack := lanczosMax(a)
		vt, err := smallEigvecs(a, w, 1/(dropTol*lmax), dropTol*(lmax+slack), scratch)
		if err != nil {
			return nil, 0, err
		}
		if dropped = vt.Rows; dropped > 0 {
			wv := MatMul(NoTrans, Trans, w, vt)
			Gemm(NoTrans, NoTrans, -1, wv, vt, 1, w)
		}
	}
	return w, dropped, nil
}

// lanczosMax returns the largest Ritz value of the symmetric matrix a
// after at most lanczosMaxIter Lanczos steps with full reorthogonalisation
// from a fixed start vector (a Weyl sequence: positive, so it overlaps the
// dominant vector of a positive kernel, and without any symmetry of its
// own), and the residual norm of its Ritz pair. The Ritz value is a lower
// bound of λmax and an eigenvalue lies within the residual of it, so λmax
// is in [top, top+resid]. The steps stop early at a relative residual of
// lanczosResTol (7 steps on a water metric); a spectrum with a flat or
// clustered top runs to the cap and gets a wider bracket, not an error.
func lanczosMax(a *Mat) (top, resid float64) {
	n := a.Rows
	steps := min(lanczosMaxIter, n)
	q := make([][]float64, 1, steps+1) // the Lanczos vectors
	q[0] = make([]float64, n)
	for i := range q[0] {
		_, frac := math.Modf(float64(i+1) * math.Phi)
		q[0][i] = 1 + frac
	}
	scale(q[0], 1/math.Sqrt(dot(q[0], q[0])))

	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps)
	for j := 0; j < steps; j++ {
		r := NewMat(n, 1)
		Gemm(NoTrans, NoTrans, 1, a, &Mat{Rows: n, Cols: 1, Data: q[j]}, 0, r)
		alpha = append(alpha, dot(q[j], r.Data))
		// Two Gram–Schmidt passes against every earlier vector.
		for pass := 0; pass < 2; pass++ {
			for _, qi := range q {
				axpy(r.Data, -dot(qi, r.Data), qi)
			}
		}
		b := math.Sqrt(dot(r.Data, r.Data))
		beta = append(beta, b)

		t := NewMat(j+1, j+1)
		for i := 0; i <= j; i++ {
			t.Data[i*(j+1)+i] = alpha[i]
			if i < j {
				t.Data[i*(j+1)+i+1] = beta[i]
				t.Data[(i+1)*(j+1)+i] = beta[i]
			}
		}
		th, s := EigSym(t)
		// |β_j·s_j| is the residual of the top Ritz pair; b == 0 means the
		// Krylov space is invariant and the Ritz value exact.
		top, resid = th[j], math.Abs(b*s.Data[j*(j+1)+j])
		if resid <= lanczosResTol*top {
			break
		}
		scale(r.Data, 1/b)
		q = append(q, r.Data)
	}
	return top, resid
}

// smallEigvecs returns, as the rows of vt, orthonormal eigenvectors of
// A⁻¹ = LiᵀLi with eigenvalue θ ≥ thr — the directions MetricFactor
// drops — for the lower-triangular li = L⁻¹, and guarantees that every
// other eigenvalue of a is above shift (the drop threshold in terms of a,
// at the upper end of the λmax bracket).
//
// Block inverse subspace iteration with a Rayleigh–Ritz step per sweep:
// Y = Li·X, H = YᵀY, Z = Liᵀ·Y = A⁻¹X, rotate both by the eigenvectors of
// H, test the residuals, continue from the orthonormalised Z. Vectors are
// kept as rows, so every product is a row-panel Gemm. The block starts as
// the rows of Li of largest norm (A⁻¹ = Σ_i li_i·li_iᵀ is dominated by
// them) and doubles while fewer than metricGuard of its Ritz values are
// under thr.
//
// Converged residuals show that the pairs found are eigenpairs, not that
// none is missing: a dropped direction the block has barely picked up yet
// leaves every residual small. So once the pairs with θ ≥ thr have
// converged, and the first pair under thr has too or cannot reach thr any
// more (θ + ‖r‖ < thr; Ritz values of A⁻¹ only grow from sweep to sweep),
// the converged pairs S at the top of the block are certified complete:
// a + 2·shift·SᵀS − shift·I moves them above shift and leaves the rest of
// the spectrum of a − shift·I in place, so it has a Cholesky factor
// exactly when no eigenvalue outside S is at or under shift. After a
// failed certificate the block doubles, which brings in start vectors that
// do hold the missing direction, and the next one waits until S has grown.
func smallEigvecs(a, li *Mat, thr, shift float64, scratch []float64) (vt *Mat, err error) {
	n := li.Rows
	// Rows of Li by decreasing norm; ties keep index order.
	norms := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		norms[i] = dot(li.Row(i), li.Row(i))
	}
	sort.SliceStable(order, func(i, j int) bool { return norms[order[i]] > norms[order[j]] })

	b := min(metricBlock, n)
	xt := NewMat(b, n)
	for i := 0; i < b; i++ {
		copy(xt.Row(i), li.Row(order[i]))
	}
	orthonormalizeRows(xt, 0)
	yt, zt, rx, rz := NewMat(b, n), NewMat(b, n), NewMat(b, n), NewMat(b, n)

	refused := -1 // size of S at the last failed certificate
	for iter := 0; iter < metricMaxIter; iter++ {
		Gemm(NoTrans, Trans, 1, xt, li, 0, yt)
		theta, s := EigSym(MatMul(NoTrans, Trans, yt, yt)) // ascending
		Gemm(NoTrans, NoTrans, 1, yt, li, 0, zt)
		Gemm(Trans, NoTrans, 1, s, xt, 0, rx) // Ritz vectors
		Gemm(Trans, NoTrans, 1, s, zt, 0, rz) // A⁻¹ applied to them

		res := make([]float64, b)
		for i := range res {
			var ss float64
			x, z := rx.Row(i), rz.Row(i)
			for k := range x {
				d := z[k] - theta[i]*x[k]
				ss += d * d
			}
			res[i] = math.Sqrt(ss)
		}
		keep := 0 // Ritz pairs under thr: indices [0, keep)
		for keep < b && theta[keep] < thr {
			keep++
		}
		open := b // converged pairs, from the top: indices [open, b)
		for open > 0 && res[open-1] <= metricResTol*theta[open-1] {
			open--
		}
		grow := keep < metricGuard && b < n
		if k := keep - 1; !grow && open <= keep && b-open > refused &&
			(k < 0 || open <= k || theta[k]+res[k] < thr) {
			if aboveShift(a, shift, &Mat{Rows: b - open, Cols: n, Data: rx.Data[open*n:]}, scratch) {
				return &Mat{Rows: b - keep, Cols: n, Data: rx.Data[keep*n:]}, nil
			}
			// A direction is missing that the block has next to nothing of.
			refused, grow = b-open, true
		}
		if grow && b < n {
			// Keep the Ritz vectors, add the next rows of Li.
			nb := min(2*b, n)
			xt = NewMat(nb, n)
			copy(xt.Data, rx.Data)
			for i := b; i < nb; i++ {
				copy(xt.Row(i), li.Row(order[i]))
			}
			orthonormalizeRows(xt, b)
			yt, zt, rx, rz = NewMat(nb, n), NewMat(nb, n), NewMat(nb, n), NewMat(nb, n)
			b = nb
			continue
		}
		orthonormalizeRows(rz, 0)
		xt, rz = rz, xt
	}
	return nil, fmt.Errorf("linalg: MetricFactor: inverse subspace iteration after %d sweeps: %w", metricMaxIter, ErrNoConvergence)
}

// aboveShift reports whether every eigenvalue of a outside the span of
// the orthonormal eigenvectors in the rows of st exceeds shift, by the
// Cholesky factorisation of a + 2·shift·SᵀS − shift·I, in place in
// scratch (n² + cholScratch(n) elements).
func aboveShift(a *Mat, shift float64, st *Mat, scratch []float64) bool {
	n := a.Rows
	m := &Mat{Rows: n, Cols: n, Data: scratch[:n*n]}
	copy(m.Data, a.Data)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] -= shift
	}
	if st.Rows > 0 {
		Gemm(Trans, NoTrans, 2*shift, st, st, 1, m)
	}
	return cholesky(m, m, scratch[n*n:]) == nil
}

// orthonormalizeRows makes rows [from, m.Rows) of m orthonormal to each
// other and to rows [0, from), which must be orthonormal already, by two
// passes of modified Gram–Schmidt.
func orthonormalizeRows(m *Mat, from int) {
	for i := from; i < m.Rows; i++ {
		r := m.Row(i)
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < i; j++ {
				axpy(r, -dot(m.Row(j), r), m.Row(j))
			}
		}
		scale(r, 1/math.Sqrt(dot(r, r)))
	}
}

func dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// axpy adds alpha·x to y.
func axpy(y []float64, alpha float64, x []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}
