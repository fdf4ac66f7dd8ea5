package fragment

import (
	"math"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/racecheck"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

// ljq is the surrogate's fixed water-like charge model; because the
// charges are geometry-independent the embedded LJ MBE is exactly
// conservative, so full-system finite differences validate the entire
// gradient assembly (fragment fold, cap chain rule, field-site fold,
// pair-residual correction).
var ljq = map[int]float64{1: 0.18, 8: -0.36, 6: 0.1, 7: -0.3}

func ljEval() *potential.LennardJones { return &potential.LennardJones{Charges: ljq} }

// The acceptance criterion: embedded MBE(2) on the water cluster moves
// the energy toward the supersystem reference — the EE-MBE error must
// be strictly smaller than the vacuum MBE error.
func TestEmbeddedMBE2BeatsVacuumOnWaterCluster(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	sizes := []int{3}
	if !testing.Short() {
		sizes = append(sizes, 4)
	}
	eval := &potential.HF{UseRI: true}
	for _, n := range sizes {
		g := molecule.WaterCluster(n)
		super, _, err := eval.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ByMolecule(g, 3, 1, Options{MaxOrder: 2})
		if err != nil {
			t.Fatal(err)
		}
		vac, err := f.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := f.ComputeEmbedded(eval, nil, EmbedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		errVac := math.Abs(vac.Energy - super)
		errEmb := math.Abs(emb.Energy - super)
		t.Logf("n=%d: super %.8f, vacuum err %.3e, embedded err %.3e", n, super, errVac, errEmb)
		if errEmb >= errVac {
			t.Errorf("n=%d: embedding did not shrink the MBE2 error: %.3e vs %.3e", n, errEmb, errVac)
		}
		if len(emb.Charges) != g.N() {
			t.Errorf("n=%d: %d embedding charges for %d atoms", n, len(emb.Charges), g.N())
		}
	}
}

// fdMBEGradient computes the central-difference gradient of the total
// embedded MBE energy, recomputing the charges at every displaced
// geometry — so it only matches the analytic gradient exactly when the
// charge model is geometry-independent (the LJ surrogate).
func fdMBEGradient(t *testing.T, g *molecule.Geometry, monomers [][]int, opts Options, eo EmbedOptions, h float64) []float64 {
	t.Helper()
	energy := func(gg *molecule.Geometry) float64 {
		f, err := New(gg, monomers, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ComputeEmbedded(ljEval(), nil, eo)
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	grad := make([]float64, 3*g.N())
	for i := range g.Atoms {
		for d := 0; d < 3; d++ {
			gp, gm := g.Clone(), g.Clone()
			gp.Atoms[i].Pos[d] += h
			gm.Atoms[i].Pos[d] -= h
			grad[3*i+d] = (energy(gp) - energy(gm)) / (2 * h)
		}
	}
	return grad
}

// The assembled EE-MBE gradient is analytic end to end: fragment
// forces, H-cap chain rule, field-site back-folding and the
// pair-residual correction must together match finite differences of
// the total energy. Checked on a capped covalent system with a dimer
// cutoff (so extra dimers and the residual correction are all active).
func TestEmbeddedMBEGradientFD(t *testing.T) {
	g, residues := molecule.Polyglycine(4)
	opts := Options{MaxOrder: 2, DimerCutoff: 8}
	eo := EmbedOptions{SCC: 1, Damping: 0.25}
	f, err := New(g, residues, opts)
	if err != nil {
		t.Fatal(err)
	}
	nMono := len(f.Monomers)
	if got, full := len(f.Terms().Dimers), nMono*(nMono-1)/2; got >= full {
		t.Fatalf("cutoff excluded no dimer (%d of %d) — the residual correction would be untested", got, full)
	}
	res, err := f.ComputeEmbedded(ljEval(), nil, eo)
	if err != nil {
		t.Fatal(err)
	}
	if res.EPairResidual == 0 {
		t.Error("pair-residual correction inactive despite the dimer cutoff")
	}
	want := fdMBEGradient(t, g, residues, opts, eo, 1e-6)
	for i := range want {
		if d := math.Abs(res.Gradient[i] - want[i]); d > 1e-8 {
			t.Errorf("grad[%d]: analytic %.12f vs FD %.12f (Δ %.2e)", i, res.Gradient[i], want[i], d)
		}
	}
}

// Zero charges reduce the embedded driver to the vacuum expansion
// exactly (empty fields, zero residual).
func TestEmbeddedMBEZeroChargesMatchesVacuum(t *testing.T) {
	g := molecule.WaterCluster(4)
	f, err := ByMolecule(g, 3, 1, Options{MaxOrder: 2, DimerCutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	lj := &potential.LennardJones{} // nil charge map: all zeros
	vac, err := f.Compute(lj)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := f.ComputeEmbedded(lj, nil, EmbedOptions{SCC: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Map-ordered accumulation reassociates sums between the two
	// drivers, so compare at rounding level, not bitwise.
	if math.Abs(vac.Energy-emb.Energy) > 1e-14 {
		t.Errorf("zero-charge embedding changed the energy: %.15f vs %.15f", emb.Energy, vac.Energy)
	}
	for i := range vac.Gradient {
		if math.Abs(vac.Gradient[i]-emb.Gradient[i]) > 1e-14 {
			t.Fatalf("zero-charge embedding changed gradient[%d]: %.17g vs %.17g",
				i, vac.Gradient[i], emb.Gradient[i])
		}
	}
}

// With the complete polymer set every pair is fully included (s_IJ = 1)
// and the residual correction must vanish identically; a cutoff must
// activate it.
func TestPairInclusion(t *testing.T) {
	g := molecule.WaterCluster(5)
	for _, tc := range []struct {
		name   string
		opts   Options
		allOne bool
	}{
		{"full-mbe2", Options{MaxOrder: 2}, true},
		{"full-mbe3", Options{MaxOrder: 3}, true},
		{"cut-mbe2", Options{MaxOrder: 2, DimerCutoff: 9}, false},
	} {
		f, err := ByMolecule(g, 3, 1, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		terms := f.Terms()
		s := pairInclusion(len(f.Monomers), terms.All(), terms.Coefficients())
		n := len(f.Monomers)
		sawPartial := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := s[i*n+j]
				if tc.allOne && math.Abs(v-1) > 1e-12 {
					t.Errorf("%s: s[%d,%d] = %g, want 1", tc.name, i, j, v)
				}
				if math.Abs(v-1) > 1e-12 {
					sawPartial = true
				}
			}
		}
		if !tc.allOne && !sawPartial {
			t.Errorf("%s: expected at least one partially included pair", tc.name)
		}
	}
}

// MonomerCharges: charges fold back onto parent atoms (caps onto their
// inner bond atoms), the SCC loop stops early once converged, and a
// fixed-charge model converges after one refinement round.
func TestMonomerCharges(t *testing.T) {
	g, residues := molecule.Polyglycine(3)
	f, err := New(g, residues, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, iters, rounds, err := f.MonomerCharges(ljEval(), EmbedOptions{SCC: 5, SCCTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if iters != 0 {
		t.Errorf("stateless charge source reported %d SCF iterations", iters)
	}
	// The LJ charges ignore the field, so round 1 changes nothing and
	// the tolerance stops the loop immediately after it.
	if rounds != 2 {
		t.Errorf("fixed-charge SCC ran %d rounds, want 2 (vacuum + one converged check)", rounds)
	}
	if len(q) != g.N() {
		t.Fatalf("%d charges for %d atoms", len(q), g.N())
	}
	// Caps fold onto inner atoms: totals per monomer must equal the
	// capped fragment's total charge, and every atom's charge is its
	// element charge plus any cap folds (cap H carries ljq[1]).
	for mi := range f.Monomers {
		ex := f.Extract(Polymer{Monomers: []int{mi}})
		var want float64
		for _, a := range ex.Geom.Atoms {
			want += ljq[a.Z]
		}
		var got float64
		for _, a := range f.Monomers[mi].Atoms {
			got += q[a]
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("monomer %d folded charge %.6f, capped fragment total %.6f", mi, got, want)
		}
	}
}

// Invalid embed options, and embedding in a periodic cell (whose field
// would be minimum-image-truncated Coulomb), are rejected loudly.
func TestEmbedOptionsValidation(t *testing.T) {
	g := molecule.WaterCluster(2)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eo := range []EmbedOptions{
		{SCC: -1},
		{SCCTol: -1e-3},
		{Damping: 1.0},
		{Damping: -0.1},
	} {
		if _, err := f.ComputeEmbedded(ljEval(), nil, eo); err == nil {
			t.Errorf("options %+v accepted", eo)
		}
	}
	// An evaluator without the embedding interfaces is refused.
	if _, err := f.ComputeEmbedded(additiveEvaluator{c: 1}, nil, EmbedOptions{}); err == nil {
		t.Error("non-embeddable evaluator accepted")
	}
	g.Cell, _ = molecule.NewCellAngstrom(20, 20, 20)
	if f, err = ByMolecule(g, 3, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	_, err = f.ComputeEmbedded(ljEval(), nil, EmbedOptions{})
	if err == nil || !strings.Contains(err.Error(), "periodic cell 20 x 20 x 20 Å") {
		t.Errorf("embedding in a periodic cell: got %v, want the cell refusal", err)
	}
}

// Negative cutoffs are invalid input (satellite fix): New must error
// instead of silently producing a dimerless expansion.
func TestNegativeCutoffRejected(t *testing.T) {
	g := molecule.WaterCluster(2)
	if _, err := ByMolecule(g, 3, 1, Options{DimerCutoff: -1}); err == nil {
		t.Error("negative dimer cutoff accepted")
	}
	if _, err := ByMolecule(g, 3, 1, Options{TrimerCutoff: -0.5}); err == nil {
		t.Error("negative trimer cutoff accepted")
	}
	// NaN fails every comparison, so a "< 0" check would let it through
	// and drop every dimer.
	if _, err := ByMolecule(g, 3, 1, Options{DimerCutoff: math.NaN()}); err == nil {
		t.Error("NaN dimer cutoff accepted")
	}
	if _, err := ByMolecule(g, 3, 1, Options{TrimerCutoff: math.NaN()}); err == nil {
		t.Error("NaN trimer cutoff accepted")
	}
	if _, err := ByMolecule(g, 3, 1, Options{DimerCutoff: math.Inf(1), TrimerCutoff: math.Inf(1)}); err != nil {
		t.Errorf("+Inf cutoffs rejected: %v", err)
	}
	// LoadSystem (the CLI and serve loader) rejects them too, in Å,
	// instead of reading them as "no cutoff".
	var xyz strings.Builder
	if err := g.WriteXYZ(&xyz); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]float64{{math.NaN(), 0}, {-1, 0}, {0, math.NaN()}, {0, -1}} {
		if _, err := LoadSystem(strings.NewReader(xyz.String()), nil, 3, c[0], c[1]); err == nil {
			t.Errorf("LoadSystem(dimer %g, trimer %g Å) accepted", c[0], c[1])
		}
	}
}
