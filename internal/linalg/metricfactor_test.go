package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// symFromSpectrum returns Q·diag(w)·Qᵀ for a product Q of two Householder
// reflectors, so no eigenvector is a unit vector.
func symFromSpectrum(rng *rand.Rand, w []float64) *Mat {
	n := len(w)
	a := NewMat(n, n)
	for i, x := range w {
		a.Set(i, i, x)
	}
	for r := 0; r < 2; r++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		scale(v, 1/math.Sqrt(dot(v, v)))
		h := Identity(n)
		for i := range v {
			for j := range v {
				h.Add(i, j, -2*v[i]*v[j])
			}
		}
		a = MatMul(NoTrans, NoTrans, h, MatMul(NoTrans, NoTrans, a, h))
	}
	return a.Sym()
}

// Nothing to drop: the factor of a well-conditioned matrix is the plain
// inverse Cholesky factor, at every size around the panel width.
func TestMetricFactorWellConditionedIsInverseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 11, cholBlock, cholBlock + 1, 3*cholBlock + 5} {
		m := randMat(rng, n, n)
		a := MatMul(NoTrans, Trans, m, m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		w, dropped, err := MetricFactor(a, 1e-10)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if dropped != 0 {
			t.Errorf("n=%d: dropped %d directions of a well-conditioned matrix", n, dropped)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if w.At(i, j) != 0 || l.At(i, j) != 0 {
					t.Fatalf("n=%d: factor is not lower triangular at (%d,%d)", n, i, j)
				}
			}
		}
		matsClose(t, MatMul(NoTrans, Trans, l, l), a, 1e-10*float64(n))
		matsClose(t, MatMul(NoTrans, NoTrans, w, l), Identity(n), 1e-12)
	}
}

// Known spectra with some eigenvalues under the threshold: the factor
// drops exactly those, at block sizes below, at and above metricBlock
// (the last makes the block grow).
func TestMetricFactorDropsKnownSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range []struct{ n, small int }{{3, 1}, {metricBlock, 2}, {40, 5}, {90, metricBlock + 3}} {
		w := make([]float64, c.n)
		for i := range w {
			if i < c.small {
				w[i] = 2e-11 * (1 + float64(i)) / float64(c.small+1) // ≤ 2e-11
			} else {
				w[i] = math.Pow(10, -9*rng.Float64()) // 1e-9 … 1
			}
		}
		w[c.n-1] = 1
		a := symFromSpectrum(rng, w)
		f, dropped, err := MetricFactor(a, 1e-10)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if dropped != c.small {
			t.Errorf("n=%d: dropped %d directions, want %d", c.n, dropped, c.small)
		}
		fa := MatMul(NoTrans, NoTrans, f, a)
		if tr, want := MatMul(NoTrans, Trans, fa, f).Trace(), float64(c.n-c.small); math.Abs(tr-want) > 1e-6 {
			t.Errorf("n=%d: tr(W·A·Wᵀ) = %.9f, want %g", c.n, tr, want)
		}
	}
}

// Ten to thirteen directions under the threshold — about a block — right
// below a dense band of kept eigenvalues that starts at 1.3× the threshold:
// a dropped direction the start block has next to nothing of leaves every
// residual small, and only the certificate notices that it is missing. The
// count must be EigSym's on every spectrum.
func TestMetricFactorCountsNextToThreshold(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		n := 60 + rng.Intn(96)
		small := 10 + rng.Intn(4)
		w := make([]float64, n)
		for i := range w {
			if i < small {
				w[i] = math.Pow(10, -12+1.95*rng.Float64()) // 1e-12 … 0.9e-10
			} else {
				w[i] = 1.3e-10 * math.Pow(10, 9.8*rng.Float64()*rng.Float64())
			}
		}
		w[n-1] = 1
		a := symFromSpectrum(rng, w)
		ev, _ := EigSym(a)
		want := 0
		for _, x := range ev {
			if x <= 1e-10*ev[n-1] {
				want++
			}
		}
		_, dropped, err := MetricFactor(a, 1e-10)
		if err != nil {
			t.Errorf("seed %d, n=%d: %v", seed, n, err)
		} else if dropped != want {
			t.Errorf("seed %d, n=%d: dropped %d directions, EigSym has %d under the threshold", seed, n, dropped, want)
		}
	}
}

// A well-conditioned spectrum without a separated top: Lanczos does not
// settle on λmax in its steps, which widens the bracket the threshold is
// taken from and is not an error.
func TestMetricFactorFlatSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w := make([]float64, 300)
	for i := range w {
		w[i] = 0.5 + 0.5*rng.Float64()
	}
	a := symFromSpectrum(rng, w)
	if _, resid := lanczosMax(a); resid <= lanczosResTol*0.5 {
		t.Fatalf("Lanczos converged (residual %.1e): the spectrum is not flat enough for this test", resid)
	}
	f, dropped, err := MetricFactor(a, 1e-10)
	if err != nil || dropped != 0 {
		t.Fatalf("dropped %d directions, err = %v; want 0, nil", dropped, err)
	}
	fa := MatMul(NoTrans, NoTrans, f, a)
	matsClose(t, MatMul(NoTrans, Trans, fa, f), Identity(len(w)), 1e-10)
}

// A matrix that is singular to working precision — a duplicated row and
// column — has no Cholesky factor; the caller falls back to InvSqrtSym.
func TestMetricFactorSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 20
	m := randMat(rng, n, n)
	copy(m.Row(n-1), m.Row(3))
	a := MatMul(NoTrans, Trans, m, m)
	if _, _, err := MetricFactor(a, 1e-10); !errors.Is(err, ErrSingular) {
		t.Errorf("duplicated row: err = %v, want ErrSingular", err)
	}
	a.Set(5, 7, math.NaN())
	a.Set(7, 5, math.NaN())
	if _, _, err := MetricFactor(a, 1e-10); !errors.Is(err, ErrSingular) {
		t.Errorf("NaN entry: err = %v, want ErrSingular", err)
	}
}

// clusteredAtThreshold returns a positive-definite matrix with forty
// eigenvalues packed within ±2 % of 1e-10·λmax: more than a block holds,
// and too close together for subspace iteration to separate.
func clusteredAtThreshold() *Mat {
	w := make([]float64, 60)
	for i := range w {
		if i < 40 {
			w[i] = 1e-10 * (0.98 + 0.001*float64(i))
		} else {
			w[i] = 0.05 * float64(i-39)
		}
	}
	return symFromSpectrum(rand.New(rand.NewSource(23)), w)
}

// The iteration cap is an error, never a factor with the wrong directions
// dropped.
func TestMetricFactorNoConvergence(t *testing.T) {
	w, _, err := MetricFactor(clusteredAtThreshold(), 1e-10)
	if !errors.Is(err, ErrNoConvergence) || w != nil {
		t.Errorf("clustered spectrum: factor %v, err = %v; want nil, ErrNoConvergence", w != nil, err)
	}
}
