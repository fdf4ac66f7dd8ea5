package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func randSym(rng *rand.Rand, n int) *Mat {
	m := randMat(rng, n, n)
	return m.Sym()
}

// JacobiEigSym is the cyclic-Jacobi eigensolver EigSym used to be, kept
// as the test oracle: unconditionally stable, O(n³) per sweep, same
// contract (ascending eigenvalues, eigenvectors in columns). Exported so
// the external test package can check EigSym against it on real RI
// metrics.
func JacobiEigSym(a *Mat) (w []float64, v *Mat) {
	n := a.Rows
	m := a.Clone()
	v = Identity(n)
	if n == 0 {
		return nil, v
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.Data[i*n+j] * m.Data[i*n+j]
			}
		}
		if off < 1e-24*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.Data[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := m.Data[p*n+p]
				aqq := m.Data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e12 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				cth := 1 / math.Sqrt(t*t+1)
				s := t * cth
				tau := s / (1 + cth)

				m.Data[p*n+p] = app - t*apq
				m.Data[q*n+q] = aqq + t*apq
				m.Data[p*n+q] = 0
				m.Data[q*n+p] = 0
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip := m.Data[i*n+p]
						aiq := m.Data[i*n+q]
						m.Data[i*n+p] = aip - s*(aiq+tau*aip)
						m.Data[i*n+q] = aiq + s*(aip-tau*aiq)
						m.Data[p*n+i] = m.Data[i*n+p]
						m.Data[q*n+i] = m.Data[i*n+q]
					}
					vip := v.Data[i*n+p]
					viq := v.Data[i*n+q]
					v.Data[i*n+p] = vip - s*(viq+tau*vip)
					v.Data[i*n+q] = viq + s*(vip-tau*viq)
				}
			}
		}
	}

	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = m.Data[i*n+i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] < w[idx[j]] })
	ws := make([]float64, n)
	vs := NewMat(n, n)
	for col, src := range idx {
		ws[col] = w[src]
		for i := 0; i < n; i++ {
			vs.Data[i*n+col] = v.Data[i*n+src]
		}
	}
	return ws, vs
}

// CheckEigSym holds EigSym(a) to the stated bounds against the Jacobi
// oracle: |Δw| ≤ 1e-11·‖A‖, ‖AV − VΛ‖∞ ≤ 1e-11·‖A‖, ‖VᵀV − I‖∞ ≤ 1e-12
// (‖A‖ = max |a_ij|, floored at 1 so the zero matrix has a bound).
func CheckEigSym(t *testing.T, name string, a *Mat) {
	t.Helper()
	n := a.Rows
	w, v := EigSym(a)
	wj, _ := JacobiEigSym(a)
	norm := math.Max(a.MaxAbs(), 1)
	for j := 0; j < n; j++ {
		if j > 0 && w[j] < w[j-1] {
			t.Fatalf("%s: eigenvalues not ascending at %d: %g < %g", name, j, w[j], w[j-1])
		}
		if d := math.Abs(w[j] - wj[j]); d > 1e-11*norm {
			t.Fatalf("%s: eigenvalue %d: %g vs Jacobi %g (|Δ|=%.3g > %.3g)", name, j, w[j], wj[j], d, 1e-11*norm)
		}
	}
	av := MatMul(NoTrans, NoTrans, a, v)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(av.At(i, j) - v.At(i, j)*w[j]); d > 1e-11*norm {
				t.Fatalf("%s: (AV − VΛ)[%d,%d] = %.3g > %.3g", name, i, j, d, 1e-11*norm)
			}
		}
	}
	vtv := MatMul(Trans, NoTrans, v, v)
	for i := 0; i < n; i++ {
		vtv.Add(i, i, -1)
	}
	if d := vtv.MaxAbs(); d > 1e-12 {
		t.Fatalf("%s: ‖VᵀV − I‖∞ = %.3g > 1e-12", name, d)
	}
}

func TestEigSymMatchesJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 17, 64, 200} {
		if n == 200 && testing.Short() {
			continue // the oracle needs ~1 s at n = 200
		}
		CheckEigSym(t, "random", randSym(rng, n))
	}
	CheckEigSym(t, "identity", Identity(12))
	CheckEigSym(t, "zero", NewMat(5, 5))

	// Q·diag(spec)·Qᵀ with a prescribed spectrum.
	withSpectrum := func(spec []float64) *Mat {
		n := len(spec)
		_, q := JacobiEigSym(randSym(rng, n))
		qd := q.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				qd.Data[i*n+j] *= spec[j]
			}
		}
		return MatMul(NoTrans, Trans, qd, q).Sym()
	}
	repeated := make([]float64, 24)
	for i := range repeated {
		repeated[i] = float64(1 + i/6) // four six-fold eigenvalues
	}
	CheckEigSym(t, "repeated", withSpectrum(repeated))
	deficient := make([]float64, 30)
	for i := 10; i < 30; i++ {
		deficient[i] = rng.Float64() + 0.5 // rank 20 of 30
	}
	CheckEigSym(t, "rank-deficient", withSpectrum(deficient))
	graded := make([]float64, 40)
	for i := range graded {
		graded[i] = math.Pow(10, -11*float64(i)/39) // cond 1e11, like an RI metric
	}
	CheckEigSym(t, "graded", withSpectrum(graded))
}

// A non-finite entry must come back as an all-NaN result at once, not
// after a hundred O(n³) sweeps and not as a plausible-looking spectrum.
func TestEigSymNonFiniteInputFailsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		a := randSym(rng, 300)
		a.Set(7, 9, bad)
		a.Set(9, 7, bad)
		start := time.Now()
		w, v := EigSym(a)
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Fatalf("EigSym took %v on a non-finite 300×300 matrix", el)
		}
		for _, x := range w {
			if !math.IsNaN(x) {
				t.Fatalf("eigenvalue %g from a matrix holding %g, want NaN", x, bad)
			}
		}
		if !math.IsNaN(v.At(0, 0)) {
			t.Fatal("eigenvectors of a non-finite matrix must be NaN")
		}
	}
}

func TestEigSymTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randSym(rng, n)
		w, _ := EigSym(a)
		var s float64
		for _, x := range w {
			s += x
		}
		return math.Abs(s-a.Trace()) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInvSqrtSym(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 3, 12, 40} {
		// SPD matrix: M Mᵀ + n·I.
		m := randMat(rng, n, n)
		a := MatMul(NoTrans, Trans, m, m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		x, _ := InvSqrtSym(a, 1e-12)
		// x·a·x == I
		xa := MatMul(NoTrans, NoTrans, x, a)
		xax := MatMul(NoTrans, NoTrans, xa, x)
		eye := Identity(n)
		for i := range xax.Data {
			if math.Abs(xax.Data[i]-eye.Data[i]) > 1e-8 {
				t.Fatalf("n=%d: A^{-1/2} A A^{-1/2} != I (Δ=%g)", n, xax.Data[i]-eye.Data[i])
			}
		}
	}
}

func TestInvSqrtSymDropsNullSpace(t *testing.T) {
	// Rank-1 2x2 matrix; the null direction must be projected out,
	// not blow up.
	a := NewMatFrom(2, 2, []float64{1, 1, 1, 1})
	x, dropped := InvSqrtSym(a, 1e-10)
	if dropped != 1 {
		t.Errorf("dropped %d directions, want 1", dropped)
	}
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("InvSqrtSym produced non-finite values on singular input")
		}
	}
}
