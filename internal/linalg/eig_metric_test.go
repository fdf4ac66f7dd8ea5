package linalg_test

import (
	"math"
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

// InvSqrtSym(J, 1e-10) must keep projecting out the same near-null
// directions of the metric the Jacobi solver did: 1, 2 and 4 for one,
// two and three waters. X·J·X is the projector on the retained space,
// so its trace counts the retained directions.
func TestInvSqrtSymDropsOnWaterMetrics(t *testing.T) {
	for n, wantDropped := range map[int]int{1: 1, 2: 2, 3: 4} {
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
		x := linalg.InvSqrtSym(j, 1e-10)
		xj := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, x, j)
		retained := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, xj, x).Trace()
		if want := float64(j.Rows - wantDropped); math.Abs(retained-want) > 1e-6 {
			t.Errorf("%d waters: tr(X·J·X) = %.9f, want %g", n, retained, want)
		}
	}
}
