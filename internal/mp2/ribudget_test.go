package mp2

import (
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

// riBudgetAux is the auxiliary basis the RI error budget holds: the
// production default.
var riBudgetAux = basis.AuxOptions{}

// mp2Pair converges g in basis bs with and without RI and returns the
// RI−conventional errors of the SCF and MP2 correlation energies, plus
// the RI-MP2 result for gradient checks.
func mp2Pair(t *testing.T, g *molecule.Geometry, bs string) (dSCF, dCorr float64, ri *Result) {
	t.Helper()
	conv := tightSCF(t, g, bs, false)
	e2, err := ConventionalMP2(conv, conv.ERI)
	if err != nil {
		t.Fatal(err)
	}
	ri, err = RIMP2(tightSCF(t, g, bs, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ri.SCF.Energy - conv.Energy, ri.Ecorr - e2, ri
}

func tightSCF(t *testing.T, g *molecule.Geometry, bsName string, useRI bool) *scf.Result {
	t.Helper()
	bs, err := basis.Build(bsName, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scf.RHF(g, bs, scf.Options{
		UseRI: useRI, StoredERI: !useRI, AuxOpts: riBudgetAux, ConvE: 1e-12, ConvErr: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The RI error budget: RI − conventional ΔE_SCF and ΔE_corr of a water
// monomer and dimer (O–O 2.9 Å) in sto-3g and dzp, each within 1.1× its
// magnitude measured on the default auxiliary basis. A change to the
// auxiliary basis may tighten these bounds, never loosen them.
func TestRIErrorBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		g         *molecule.Geometry
		bs        string
		scf, corr float64 // measured |ΔE| (Ha)
		slow      bool
	}{
		{"water sto-3g", molecule.Water(), "sto-3g", 4.96e-4, 6.4e-5, false},
		{"water dzp", molecule.Water(), "dzp", 2.20e-4, 4.75e-5, false},
		{"dimer sto-3g", molecule.WaterDimer(2.9), "sto-3g", 9.92e-4, 1.27e-4, false},
		{"dimer dzp", molecule.WaterDimer(2.9), "dzp", 4.34e-4, 9.09e-5, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("conventional dzp dimer; run without -short")
			}
			dSCF, dCorr, _ := mp2Pair(t, c.g, c.bs)
			t.Logf("ΔE_SCF %+.3e, ΔE_corr %+.3e", dSCF, dCorr)
			if !(math.Abs(dSCF) <= 1.1*c.scf) {
				t.Errorf("|ΔE_SCF| = %.3e exceeds the budget 1.1 × %.3e", math.Abs(dSCF), c.scf)
			}
			if !(math.Abs(dCorr) <= 1.1*c.corr) {
				t.Errorf("|ΔE_corr| = %.3e exceeds the budget 1.1 × %.3e", math.Abs(dCorr), c.corr)
			}
		})
	}
}

// The RI-MP2 analytic gradient of the dzp water monomer against a
// central difference of the conventional MP2 energy: the gap is the RI
// error in the forces, held within 1.1× its measured value (Ha/Bohr).
func TestRIGradientBudget(t *testing.T) {
	const measured = 6.764e-5
	g := molecule.Water()
	_, _, ri := mp2Pair(t, g, "dzp")
	grad, err := ri.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	conventional := func(gg *molecule.Geometry) float64 {
		conv := tightSCF(t, gg, "dzp", false)
		e2, err := ConventionalMP2(conv, conv.ERI)
		if err != nil {
			t.Fatal(err)
		}
		return conv.Energy + e2
	}
	const h = 1e-3
	var gap float64
	for a := range g.Atoms {
		for k := 0; k < 3; k++ {
			gp, gm := g.Clone(), g.Clone()
			gp.Atoms[a].Pos[k] += h
			gm.Atoms[a].Pos[k] -= h
			fd := (conventional(gp) - conventional(gm)) / (2 * h)
			gap = math.Max(gap, math.Abs(grad[3*a+k]-fd))
		}
	}
	t.Logf("max |RI-MP2 analytic − FD conventional| = %.3e", gap)
	if !(gap <= 1.1*measured) {
		t.Errorf("max |RI-MP2 analytic − FD conventional| = %.3e exceeds the budget 1.1 × %.3e", gap, measured)
	}
}
