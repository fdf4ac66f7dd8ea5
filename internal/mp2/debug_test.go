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

// Compare the MP2-only analytic gradient against FD of Ecorr on H2.
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
	r, _ := RIMP2(ref, Options{})
	parts, err := r.gradientParts(true)
	if err != nil {
		t.Fatal(err)
	}
	hf := ref.Gradient()
	total := parts["total"]
	fmt.Printf("dE2/dz2: FD = %.9f, analytic = %.9f (Δ=%.2e)\n",
		fd, total[5]-hf[5], total[5]-hf[5]-fd)
	for _, k := range []string{"mp2-1e", "mp2-w", "mp2-sep", "mp2-amp"} {
		fmt.Printf("  %-8s z2 = %+.9f\n", k, parts[k][5])
	}
	sum := parts["mp2-1e"][5] + parts["mp2-w"][5] + parts["mp2-sep"][5] + parts["mp2-amp"][5]
	fmt.Printf("  parts sum = %+.9f (want FD %.9f)\n", sum, fd)
}

// The gradient folds the HF two-electron coefficients (D, D, ½) and the
// orbital-response coupling (P̄ + Pz, D, 1) into one AddRISeparableCoeffs
// call; the split diagnostics keep the two-call form, and the two must
// contract to the same gradient.
func TestDebugSeparableFold(t *testing.T) {
	for _, g := range []*molecule.Geometry{molecule.Water(), molecule.WaterDimer(3.0)} {
		r, err := RIMP2(runSCF(t, g, true, smallAux), Options{})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := r.gradientParts(true)
		if err != nil {
			t.Fatal(err)
		}
		for k, folded := range parts["sep"] {
			if d := math.Abs(parts["hf-sep"][k] + parts["mp2-sep"][k] - folded); d > 1e-12 {
				t.Errorf("%d atoms, component %d: two-call form differs from the folded call by %.3g (> 1e-12)", g.N(), k, d)
			}
		}
	}
}
