package potential

import (
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/racecheck"

	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

// waterField places three mixed-sign charges a few Bohr from a water
// monomer at the origin.
func waterField() *integrals.PointCharges {
	return &integrals.PointCharges{
		Pos: []float64{4.2, 0.3, -0.5, -3.6, 1.9, 0.8, 0.4, -4.5, 2.1},
		Q:   []float64{0.35, -0.3, 0.22},
	}
}

// ljCharges is a crude water-like charge model for the surrogate.
var ljCharges = map[int]float64{1: 0.2, 8: -0.4, 6: 0.1, 7: -0.3}

// Finite-difference validation of every evaluator's vacuum forces
// through the shared FDForces helper.
func TestFDForcesVacuum(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	g := molecule.Water()
	cases := []struct {
		name string
		eval fragment.Evaluator
		h    float64
		tol  float64
		idx  []int
	}{
		{"LJ", &LennardJones{}, 1e-6, 1e-9, nil},
		{"RIHF", &HF{UseRI: true}, 1e-4, 1e-6, []int{0, 3, 7}},
		{"RIMP2", &RIMP2{}, 1e-4, 1e-6, []int{0, 3, 7}},
	}
	for _, tc := range cases {
		maxAtom, _, err := FDForces(tc.eval, g, nil, tc.h, tc.idx, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if maxAtom > tc.tol {
			t.Errorf("%s: max FD deviation %.2e exceeds %.0e Ha/Bohr", tc.name, maxAtom, tc.tol)
		}
	}
}

// The embedded evaluators: analytic forces on fragment atoms *and*
// field sites must match finite differences ≤ 1e-6 Ha/Bohr with the
// charges frozen.
func TestFDForcesEmbedded(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	g := molecule.Water()
	pc := waterField()
	cases := []struct {
		name   string
		eval   fragment.Evaluator
		h      float64
		tol    float64
		ai, si []int
	}{
		{"LJ", &LennardJones{Charges: ljCharges}, 1e-6, 1e-9, nil, nil},
		{"RIHF", &HF{UseRI: true}, 1e-4, 1e-6, []int{0, 4, 8}, []int{1, 5, 6}},
		{"RIMP2", &RIMP2{}, 1e-4, 1e-6, []int{0, 4, 8}, []int{1, 5, 6}},
	}
	for _, tc := range cases {
		maxAtom, maxSite, err := FDForces(tc.eval, g, pc, tc.h, tc.ai, tc.si)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if maxAtom > tc.tol {
			t.Errorf("%s: atom FD deviation %.2e exceeds %.0e Ha/Bohr", tc.name, maxAtom, tc.tol)
		}
		if maxSite > tc.tol {
			t.Errorf("%s: site FD deviation %.2e exceeds %.0e Ha/Bohr", tc.name, maxSite, tc.tol)
		}
	}
}

// Capped fragments: the evaluator sees the H-cap as a real atom, so
// its forces — including those on the cap — must still match finite
// differences, in vacuum and embedded. The cap chain rule back to the
// parent system is validated separately in package fragment.
func TestFDForcesCappedFragment(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	g, residues := molecule.Polyglycine(3)
	frag, err := fragment.New(g, residues, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := fragment.Polymer{Monomers: []int{1}} // middle residue: capped on both cuts
	ex := frag.Extract(p)
	if len(ex.Caps) == 0 {
		t.Fatal("middle glycine residue extracted without caps")
	}
	capIdx := 3 * len(ex.ParentAtom) // first cap atom's x component

	lj := &LennardJones{Charges: ljCharges}
	maxAtom, _, err := FDForces(lj, ex.Geom, nil, 1e-6, []int{0, capIdx, capIdx + 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAtom > 1e-9 {
		t.Errorf("LJ capped fragment: FD deviation %.2e", maxAtom)
	}

	// Embedded ab initio on a minimal capped fragment: a water dimer
	// whose first water is split across its covalent O–H bond, so the
	// {O,H} monomer extracts with one H-cap (10 electrons) and the
	// second water supplies the embedding charges. FD noise scales as
	// ConvE/2h, so the SCF is converged well past the 1e-6 target.
	gd := molecule.WaterDimer(2.95)
	fragD, err := fragment.New(gd, [][]int{{0, 1}, {2}, {3, 4, 5}}, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd := fragment.Polymer{Monomers: []int{0}}
	exd := fragD.Extract(pd)
	if len(exd.Caps) != 1 {
		t.Fatalf("split water extracted with %d caps, want 1", len(exd.Caps))
	}
	charges := make([]float64, gd.N())
	for i, a := range gd.Atoms {
		charges[i] = ljCharges[a.Z]
	}
	fl := fragD.FieldFor(pd, charges, func(a int) [3]float64 { return gd.Atoms[a].Pos })
	if fl.PC().N() != 3 {
		t.Fatalf("embedding field has %d sites, want the second water's 3", fl.PC().N())
	}
	hf := &HF{UseRI: true, SCFOpts: scf.Options{ConvE: 1e-12, ConvErr: 1e-10}}
	capD := 3 * len(exd.ParentAtom)
	maxAtom, maxSite, err := FDForces(hf, exd.Geom, fl.PC(), 1e-4, []int{0, capD, capD + 1}, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if maxAtom > 1e-6 {
		t.Errorf("RIHF capped fragment: atom FD deviation %.2e", maxAtom)
	}
	if maxSite > 1e-6 {
		t.Errorf("RIHF capped fragment: site FD deviation %.2e", maxSite)
	}
}

// EvaluateEmbedded with a nil field must reproduce Evaluate, and an
// embedded warm start must reproduce the cold embedded result with
// fewer SCF iterations.
func TestEmbeddedWarmStartContract(t *testing.T) {
	g := molecule.Water()
	pc := waterField()
	hf := &HF{UseRI: true}
	eVac, _, err := hf.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	eNil, _, _, _, err := hf.EvaluateEmbedded(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eVac-eNil) > 1e-10 {
		t.Errorf("EvaluateEmbedded(nil) %.12f != Evaluate %.12f", eNil, eVac)
	}
	eCold, _, _, st, err := hf.EvaluateEmbedded(g, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.D == nil || !st.Compatible(g) {
		t.Fatal("embedded evaluation returned no usable warm-start state")
	}
	moved := g.Clone()
	moved.Atoms[1].Pos[0] += 0.01
	cold, _, _, stCold, err := hf.EvaluateEmbedded(moved, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, _, stWarm, err := hf.EvaluateEmbedded(moved, pc, st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cold-warm) > 1e-8 {
		t.Errorf("warm embedded energy deviates by %.2e", math.Abs(cold-warm))
	}
	if stWarm.SCFIters >= stCold.SCFIters {
		t.Errorf("warm embedded SCF took %d iterations, cold %d", stWarm.SCFIters, stCold.SCFIters)
	}
	if eCold == cold {
		t.Error("moved geometry left the energy bit-identical (suspicious)")
	}
}
