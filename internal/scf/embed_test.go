package scf

import (
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/racecheck"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
)

// embedField places three charges of mixed sign a few Bohr from the
// water molecule.
func embedField() *integrals.PointCharges {
	return &integrals.PointCharges{
		Pos: []float64{
			4.0, 0.5, -0.3,
			-3.5, 2.0, 1.0,
			0.7, -4.2, 2.5,
		},
		Q: []float64{0.4, -0.3, 0.25},
	}
}

// An empty field must reproduce the vacuum SCF bit-for-bit; a real
// field must polarise the density and shift the energy.
func TestEmbeddedSCFAgainstVacuum(t *testing.T) {
	g := molecule.Water()
	bs, _ := basis.Build("sto-3g", g)
	vac, err := RHF(g, bs, Options{UseRI: true})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := RHF(g, bs, Options{UseRI: true, EmbedCharges: &integrals.PointCharges{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(empty.Energy-vac.Energy) > 1e-10 || empty.EField != 0 {
		t.Fatalf("empty field changed the SCF: %.12f vs %.12f", empty.Energy, vac.Energy)
	}
	emb, err := RHF(g, bs, Options{UseRI: true, EmbedCharges: embedField()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(emb.Energy-vac.Energy) < 1e-6 {
		t.Errorf("field left the energy unchanged: %.10f", emb.Energy)
	}
	// The induction (density relaxation) must lower the embedded energy
	// below the frozen-density estimate E_vac + tr(D_vac·V^pc) + EField.
	frozen := vac.Energy + emb.EField
	vpc := integrals.PointChargeMatrix(bs, embedField())
	for i := range vpc.Data {
		frozen += vac.D.Data[i] * vpc.Data[i]
	}
	if emb.Energy > frozen+1e-10 {
		t.Errorf("embedded energy %.10f above frozen-density bound %.10f", emb.Energy, frozen)
	}
}

// Central-difference validation of the embedded gradient on both Fock
// back ends: atoms and field sites, charges held fixed.
func TestEmbeddedGradientFD(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	g := molecule.Water()
	pc := embedField()
	for _, useRI := range []bool{true, false} {
		opts := Options{UseRI: useRI, EmbedCharges: pc, ConvE: 1e-12, ConvErr: 1e-10}
		if useRI {
			opts.AuxOpts = basis.AuxOptions{PerL: []int{5, 4, 3}}
		}
		energy := func(gg *molecule.Geometry, field *integrals.PointCharges) float64 {
			bb, err := basis.Build("sto-3g", gg)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.EmbedCharges = field
			res, err := RHF(gg, bb, o)
			if err != nil {
				t.Fatal(err)
			}
			return res.Energy
		}
		bs, _ := basis.Build("sto-3g", g)
		res, err := RHF(g, bs, opts)
		if err != nil {
			t.Fatal(err)
		}
		grad, siteGrad := res.Gradients()
		if len(siteGrad) != 3*pc.N() {
			t.Fatalf("useRI=%v: site gradient length %d", useRI, len(siteGrad))
		}
		// All components on the RI path; a representative subset on the
		// slower conventional path keeps the suite -short-compatible.
		atomIdx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		siteIdx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		if !useRI {
			atomIdx = []int{0, 4, 8}
			siteIdx = []int{1, 5}
		}
		const h = 1e-4
		for _, idx := range atomIdx {
			gp, gm := g.Clone(), g.Clone()
			gp.Atoms[idx/3].Pos[idx%3] += h
			gm.Atoms[idx/3].Pos[idx%3] -= h
			fd := (energy(gp, pc) - energy(gm, pc)) / (2 * h)
			if math.Abs(fd-grad[idx]) > 1e-6 {
				t.Errorf("useRI=%v atom grad[%d]: analytic %.9f vs FD %.9f", useRI, idx, grad[idx], fd)
			}
		}
		for _, idx := range siteIdx {
			pp, pm := pc.Clone(), pc.Clone()
			pp.Pos[idx] += h
			pm.Pos[idx] -= h
			fd := (energy(g, pp) - energy(g, pm)) / (2 * h)
			if math.Abs(fd-siteGrad[idx]) > 1e-6 {
				t.Errorf("useRI=%v site grad[%d]: analytic %.9f vs FD %.9f", useRI, idx, siteGrad[idx], fd)
			}
		}
	}
}

// Mulliken charges must sum to the total molecular charge (zero for
// neutral water) and put the negative end on oxygen.
func TestMullikenCharges(t *testing.T) {
	g := molecule.Water()
	bs, _ := basis.Build("sto-3g", g)
	res, err := RHF(g, bs, Options{UseRI: true})
	if err != nil {
		t.Fatal(err)
	}
	q := res.MullikenCharges()
	var sum float64
	for _, v := range q {
		sum += v
	}
	if math.Abs(sum) > 1e-8 {
		t.Errorf("Mulliken charges sum to %.2e, want 0", sum)
	}
	if q[0] >= 0 {
		t.Errorf("oxygen Mulliken charge %.4f not negative", q[0])
	}
	for i := 1; i < 3; i++ {
		if q[i] <= 0 {
			t.Errorf("hydrogen %d Mulliken charge %.4f not positive", i, q[i])
		}
	}
}
