package linalg_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// auxMetric returns the RI Coulomb metric (P|Q) of an n-water cluster
// in the sto-3g auto-auxiliary basis (naux = 138·n).
func auxMetric(t *testing.T, n int) *linalg.Mat {
	t.Helper()
	g := molecule.WaterCluster(n)
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		t.Fatal(err)
	}
	return integrals.TwoCenter(basis.BuildAux(bs, g, basis.AuxOptions{}))
}

// The matrix EigSym exists for: the water-dimer metric, condition number
// ≈ 1.4e11, against the Jacobi oracle.
func TestEigSymOnWaterDimerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the Jacobi oracle needs ~1 s at naux = 276")
	}
	linalg.CheckEigSym(t, "water dimer (P|Q)", auxMetric(t, 2))
}

// waterMetricDropped maps a water count to the number of eigenvalues of
// its RI metric at or under 1e-10·λmax.
var waterMetricDropped = map[int]int{1: 1, 2: 2, 3: 4}

// InvSqrtSym(J, 1e-10) must keep projecting out the same near-null
// directions of the metric the Jacobi solver did: 1, 2 and 4 for one,
// two and three waters. X·J·X is the projector on the retained space,
// so its trace counts the retained directions.
func TestInvSqrtSymDropsOnWaterMetrics(t *testing.T) {
	for n, wantDropped := range waterMetricDropped {
		j := auxMetric(t, n)
		w, _ := linalg.EigSym(j)
		dropped := 0
		for _, x := range w {
			if x <= 1e-10*w[len(w)-1] {
				dropped++
			}
		}
		if dropped != wantDropped {
			t.Errorf("%d waters: %d eigenvalues under 1e-10·max, want %d", n, dropped, wantDropped)
		}
		x, xDropped := linalg.InvSqrtSym(j, 1e-10)
		if xDropped != wantDropped {
			t.Errorf("%d waters: InvSqrtSym dropped %d directions, want %d", n, xDropped, wantDropped)
		}
		xj := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, x, j)
		retained := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, xj, x).Trace()
		if want := float64(j.Rows - wantDropped); math.Abs(retained-want) > 1e-6 {
			t.Errorf("%d waters: tr(X·J·X) = %.9f, want %g", n, retained, want)
		}
	}
}

// MetricFactor(J, 1e-10) is the production factor of the RI metric: it
// must drop the directions InvSqrtSym drops and give the same
// pseudo-inverse, WᵀW = InvSqrtSym(J)², and the same bits on every call
// and at every GOMAXPROCS.
func TestMetricFactorOnWaterMetrics(t *testing.T) {
	for n, wantDropped := range waterMetricDropped {
		j := auxMetric(t, n)
		w, dropped, err := linalg.MetricFactor(j, 1e-10)
		if err != nil {
			t.Fatalf("%d waters: %v", n, err)
		}
		if dropped != wantDropped {
			t.Errorf("%d waters: dropped %d directions, want %d", n, dropped, wantDropped)
		}
		wj := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, w, j)
		retained := linalg.MatMul(linalg.NoTrans, linalg.Trans, wj, w).Trace()
		if want := float64(j.Rows - wantDropped); math.Abs(retained-want) > 1e-6 {
			t.Errorf("%d waters: tr(W·J·Wᵀ) = %.9f, want %g", n, retained, want)
		}
		x, _ := linalg.InvSqrtSym(j, 1e-10)
		pinv := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, x, x)
		diff := linalg.MatMul(linalg.Trans, linalg.NoTrans, w, w)
		diff.AxpyMat(-1, pinv)
		if rel := diff.FrobeniusNorm() / pinv.FrobeniusNorm(); rel > 1e-6 {
			t.Errorf("%d waters: ‖WᵀW − InvSqrtSym²‖/‖InvSqrtSym²‖ = %.2e, want ≤ 1e-6", n, rel)
		}

		for _, procs := range []int{0, 1, 4} { // 0 leaves GOMAXPROCS alone
			prev := runtime.GOMAXPROCS(procs)
			again, _, err := linalg.MetricFactor(j, 1e-10)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%d waters, GOMAXPROCS %d: %v", n, procs, err)
			}
			if !slices.Equal(again.Data, w.Data) {
				t.Errorf("%d waters, GOMAXPROCS %d: factor is not bit-identical to the first call", n, procs)
			}
		}
	}
}
