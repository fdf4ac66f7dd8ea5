package fragment

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

func waterTrimerFrag(t *testing.T, opts Options) *Fragmentation {
	t.Helper()
	g := molecule.WaterCluster(3)
	f, err := ByMolecule(g, 3, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// For a three-monomer system the MBE3 expansion is an exact identity:
// E_MBE3 == E_supersystem and likewise for every gradient component.
func TestMBE3ExactForThreeMonomers(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 supersystem comparison is slow; run without -short")
	}
	f := waterTrimerFrag(t, Options{})
	eval := &potential.RIMP2{Basis: "sto-3g"}
	res, err := f.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	eSuper, gSuper, err := eval.Evaluate(f.Geom)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-eSuper) > 1e-8 {
		t.Errorf("MBE3 energy %.10f != supersystem %.10f", res.Energy, eSuper)
	}
	for i := range gSuper {
		if math.Abs(res.Gradient[i]-gSuper[i]) > 1e-7 {
			t.Errorf("MBE3 grad[%d] = %.9f != supersystem %.9f", i, res.Gradient[i], gSuper[i])
		}
	}
}

// MBE2 must be less accurate than MBE3 but still close; the three-body
// correction must be nonzero.
func TestMBEOrderHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 MBE2-vs-MBE3 comparison is slow; run without -short")
	}
	eval := &potential.RIMP2{Basis: "sto-3g"}
	f3 := waterTrimerFrag(t, Options{})
	res3, err := f3.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	f2 := waterTrimerFrag(t, Options{MaxOrder: 2})
	res2, err := f2.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	eSuper, _, _ := eval.Evaluate(f3.Geom)
	err3 := math.Abs(res3.Energy - eSuper)
	err2 := math.Abs(res2.Energy - eSuper)
	if err3 > err2 {
		t.Errorf("MBE3 error %.2e worse than MBE2 %.2e", err3, err2)
	}
	if err2 < 1e-12 {
		t.Error("MBE2 unexpectedly exact; three-body term should be nonzero")
	}
}

// Cutoffs must reduce polymer counts monotonically and reproduce the
// full expansion when loose.
func TestCutoffEnumeration(t *testing.T) {
	g := molecule.WaterCluster(8)
	fLoose, _ := ByMolecule(g, 3, 1, Options{})
	fTight, _ := ByMolecule(g, 3, 1, Options{DimerCutoff: 7.0, TrimerCutoff: 6.0})
	loose := fLoose.Terms()
	tight := fTight.Terms()
	if len(loose.Dimers) != 8*7/2 {
		t.Errorf("loose dimers = %d, want 28", len(loose.Dimers))
	}
	if len(loose.Trimers) != 8*7*6/6 {
		t.Errorf("loose trimers = %d, want 56", len(loose.Trimers))
	}
	if len(tight.Dimers) >= len(loose.Dimers) {
		t.Error("tight dimer cutoff did not reduce dimer count")
	}
	if len(tight.Trimers) >= len(loose.Trimers) {
		t.Error("tight trimer cutoff did not reduce trimer count")
	}
	// Coefficients must sum to the monomer count when no dimers/trimers
	// are cut (Σ coeff = 1 per MBE identity at full inclusion... for the
	// loose full expansion, Σ_p coeff_p = 1 means the supersystem count:
	// n − n(n−1)/2·... easier invariant: every monomer's net coefficient
	// in the exact 3-monomer case is checked by TestMBE3Exact.)
	coeff := tight.Coefficients()
	for _, d := range tight.ExtraDimers {
		// Extra dimers enter only through trimer corrections: their
		// coefficient must be strictly negative (−#containing trimers).
		if coeff[d.Key()] >= 0 {
			t.Errorf("extra dimer %s coefficient %v should be negative", d.Key(), coeff[d.Key()])
		}
	}
}

// H-caps: fragmenting a covalent chain must produce capped fragments
// with the right atom counts and a gradient that matches finite
// differences of the MBE energy (chain rule through cap positions).
func TestHCapChainRule(t *testing.T) {
	g, residues := molecule.Polyglycine(2)
	f, err := New(g, residues, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.cutBonds) != 1 {
		t.Fatalf("expected 1 cut bond for diglycine, got %d", len(f.cutBonds))
	}
	// Monomer fragments carry one cap each.
	ex0 := f.Extract(Polymer{Monomers: []int{0}})
	if len(ex0.Caps) != 1 {
		t.Fatalf("monomer 0 caps = %d, want 1", len(ex0.Caps))
	}
	if ex0.Geom.N() != len(residues[0])+1 {
		t.Fatalf("monomer 0 atoms = %d, want %d", ex0.Geom.N(), len(residues[0])+1)
	}
	// The dimer covers the whole chain: no caps.
	ex01 := f.Extract(Polymer{Monomers: []int{0, 1}})
	if len(ex01.Caps) != 0 {
		t.Fatalf("dimer caps = %d, want 0", len(ex01.Caps))
	}

	// FD check of the full MBE gradient with a cheap potential (the cap
	// chain rule is potential-independent).
	eval := &potential.LennardJones{}
	res, err := f.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-6
	for _, idx := range []int{0, 5, 9, 3*g.N() - 1} {
		atom, dim := idx/3, idx%3
		gp := g.Clone()
		gp.Atoms[atom].Pos[dim] += h
		gm := g.Clone()
		gm.Atoms[atom].Pos[dim] -= h
		fp, _ := New(gp, residues, Options{})
		fm, _ := New(gm, residues, Options{})
		rp, err := fp.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := fm.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		fd := (rp.Energy - rm.Energy) / (2 * h)
		if math.Abs(res.Gradient[idx]-fd) > 1e-7 {
			t.Errorf("cap chain rule grad[%d]: analytic %.10f vs FD %.10f", idx, res.Gradient[idx], fd)
		}
	}
}

// The MBE gradient of any cluster must have zero net force.
func TestMBEGradientSumRule(t *testing.T) {
	g := molecule.WaterCluster(4)
	f, _ := ByMolecule(g, 3, 1, Options{MaxOrder: 2, DimerCutoff: 12})
	res, err := f.Compute(&potential.LennardJones{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		var s float64
		for i := 0; i < g.N(); i++ {
			s += res.Gradient[3*i+d]
		}
		if math.Abs(s) > 1e-10 {
			t.Errorf("net MBE force along %d = %.2e", d, s)
		}
	}
}

// Fig. 5 analysis support: contributions must decay with distance.
func TestContributionsDecay(t *testing.T) {
	g := molecule.WaterCluster(6)
	f, _ := ByMolecule(g, 3, 1, Options{})
	res, err := f.Compute(&potential.LennardJones{})
	if err != nil {
		t.Fatal(err)
	}
	contribs := f.Contributions(res)
	if len(contribs) == 0 {
		t.Fatal("no contributions returned")
	}
	// The largest |ΔE| among the closest quartile must exceed the
	// largest among the farthest quartile.
	n := len(contribs)
	var nearMax, farMax float64
	for _, c := range contribs[:n/4+1] {
		if v := math.Abs(c.DeltaE); v > nearMax {
			nearMax = v
		}
	}
	for _, c := range contribs[3*n/4:] {
		if v := math.Abs(c.DeltaE); v > farMax {
			farMax = v
		}
	}
	if nearMax <= farMax {
		t.Errorf("contributions do not decay: near %.3e vs far %.3e", nearMax, farMax)
	}
}

func TestByMoleculeValidation(t *testing.T) {
	g := molecule.WaterCluster(2)
	if _, err := ByMolecule(g, 4, 1, Options{}); err == nil {
		t.Error("expected error for indivisible atom count")
	}
	if _, err := New(g, [][]int{{0, 1}}, Options{}); err == nil {
		t.Error("expected error for unassigned atoms")
	}
	if _, err := New(g, [][]int{{0, 0, 1, 2, 3, 4, 5}}, Options{}); err == nil {
		t.Error("expected error for duplicate atom")
	}
}

// Block sizes below 1 are errors, not an integer divide by zero (0
// atoms per molecule) or a loop that never advances and appends empty
// monomers until memory runs out (≤ 0 molecules per monomer). Each case
// runs under a deadline so a regression fails instead of hanging. The
// atoms-per-monomer message reaches the CLI and the job API through
// LoadSystem unchanged.
func TestByMoleculeRejectsEmptyBlocks(t *testing.T) {
	g := molecule.WaterCluster(2)
	var xyz strings.Builder
	if err := g.WriteXYZ(&xyz); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		atomsPerMol, molsPerMonomer int
		want                        string
	}{
		{0, 1, "atoms per monomer must be at least 1, got 0"},
		{3, 0, "molecules per monomer must be at least 1, got 0"},
		{3, -1, "molecules per monomer must be at least 1, got -1"},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := ByMolecule(g, tc.atomsPerMol, tc.molsPerMonomer, Options{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || err.Error() != tc.want {
				t.Errorf("ByMolecule(%d, %d): error %v, want %q", tc.atomsPerMol, tc.molsPerMonomer, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ByMolecule(%d, %d) still running after 5 s", tc.atomsPerMol, tc.molsPerMonomer)
		}
	}
	_, err := LoadSystem(strings.NewReader(xyz.String()), nil, 0, 0, 0)
	if want := "fragmentation: atoms per monomer must be at least 1, got 0"; err == nil || err.Error() != want {
		t.Errorf("LoadSystem with 0 atoms per monomer: error %v, want %q", err, want)
	}
}
