package mp2

import (
	"fmt"
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

// White-box identity checks on the gradient intermediates.
func TestDebugIdentities(t *testing.T) {
	g := molecule.Water()
	ref := runSCF(t, g, true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The energy stage only materializes Qov; the gradient intermediates
	// this test white-boxes are built on demand.
	ws := r.buildMOBlocks()
	r.amplitudes()
	r.lagrangian()
	nocc := ref.NOcc
	nvir := ref.NVirt()
	eps := ref.Eps

	// Identity 1: E2 = Σ_Pia γ^P_ia B^P_ia.
	var e2check float64
	for i := 0; i < nocc; i++ {
		e2check += linalg.Dot(ws.gamma.Slice(i), ws.bov.Slice(i))
	}
	fmt.Printf("E2 = %.10f, Σγ·B = %.10f (Δ=%.2e)\n", r.Ecorr, e2check, r.Ecorr-e2check)
	if math.Abs(e2check-r.Ecorr) > 1e-10 {
		t.Error("identity E2 = γ·B violated")
	}

	// Identity 2: Λ_{j,i} − Λ_{i,j} = 2(εi−εj)P_ij on the oo block.
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			lhs := ws.lamOcc.At(j, i) - ws.lamOcc.At(i, j)
			rhs := 2 * (eps[i] - eps[j]) * ws.poo.At(i, j)
			if math.Abs(lhs-rhs) > 1e-8 {
				t.Errorf("Λ asym identity violated at (%d,%d): %.8f vs %.8f", i, j, lhs, rhs)
			}
		}
	}

	// Identity 3 (vv analogue): Λ_{b,a} − Λ_{a,b} = 2(εa−εb)P_ab.
	for a := 0; a < nvir; a++ {
		for b := 0; b < nvir; b++ {
			lhs := ws.lamVir.At(nocc+b, a) - ws.lamVir.At(nocc+a, b)
			rhs := 2 * (eps[nocc+a] - eps[nocc+b]) * ws.pvv.At(a, b)
			if math.Abs(lhs-rhs) > 1e-8 {
				t.Errorf("Λvv asym identity violated at (%d,%d): %.8f vs %.8f", a, b, lhs, rhs)
			}
		}
	}
}

// The MP2-only analytic gradient, Gradient() − SCF.Gradient(), against a
// central difference of Ecorr on H2 along the bond. The gap measured
// 1.08e-11; the bound leaves ~100× for FD truncation and SCF convergence
// noise, far below any contraction class (dropping the amplitude ζ term
// alone moves the component by 0.025).
func TestDebugH2Decomposition(t *testing.T) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(1, 0, 0, 1.4)

	ecorr := func(gg *molecule.Geometry) float64 {
		bs, _ := basis.Build("sto-3g", gg)
		ref, err := scf.RHF(gg, bs, scf.Options{UseRI: true, AuxOpts: smallAux, ConvE: 1e-13, ConvErr: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := RIMP2(ref, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rr.Ecorr
	}
	h := 1e-4
	gp := g.Clone()
	gp.Atoms[1].Pos[2] += h
	gm := g.Clone()
	gm.Atoms[1].Pos[2] -= h
	fd := (ecorr(gp) - ecorr(gm)) / (2 * h)

	ref := runSCF(t, g, true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, err := r.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	analytic := total[5] - ref.Gradient()[5]
	if d := math.Abs(analytic - fd); !(d <= 1e-9) {
		t.Errorf("dE2/dz2: analytic %.12f vs FD %.12f differ by %.3g (> 1e-9)", analytic, fd, d)
	}
}
