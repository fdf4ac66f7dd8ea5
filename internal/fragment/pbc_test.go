package fragment

import (
	"math"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

// termsEqual compares two Terms lists member-for-member, order included.
func termsEqual(t *testing.T, name string, got, want []Polymer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cell list %d polymers, brute %d", name, len(got), len(want))
	}
	for i := range got {
		a, b := got[i].Monomers, want[i].Monomers
		if len(a) != len(b) {
			t.Fatalf("%s[%d]: %v vs %v", name, i, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s[%d]: cell list %v, brute %v", name, i, a, b)
			}
		}
	}
}

// TestTermsCellListMatchesBrute pins the cell-list enumeration to the
// brute oracle across open/periodic systems and cutoff regimes,
// including cutoffs past the box length (brute fallback inside the
// list) and the Inf default.
func TestTermsCellListMatchesBrute(t *testing.T) {
	const b = chem.BohrPerAngstrom
	systems := []struct {
		name string
		g    *molecule.Geometry
		apm  int
	}{
		{"cluster", molecule.WaterCluster(30), 3},
		{"box", molecule.WaterBox(4, 3, 3, 2), 3},
		{"urea", molecule.UreaSupercell(2, 2, 2), 8},
	}
	for _, sys := range systems {
		for _, cut := range []float64{2 * b, 4 * b, 7 * b, 20 * b, math.Inf(1)} {
			opts := Options{DimerCutoff: cut, TrimerCutoff: cut * 0.8}
			if math.IsInf(cut, 1) {
				opts.TrimerCutoff = cut
			}
			fCell, err := ByMolecule(sys.g, sys.apm, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Brute = true
			fBrute, err := ByMolecule(sys.g, sys.apm, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			tc, tb := fCell.Terms(), fBrute.Terms()
			termsEqual(t, sys.name+" dimers", tc.Dimers, tb.Dimers)
			termsEqual(t, sys.name+" trimers", tc.Trimers, tb.Trimers)
			termsEqual(t, sys.name+" extra", tc.ExtraDimers, tb.ExtraDimers)
		}
	}
}

// TestTermsPeriodicSeesImages: two monomers adjacent only across the
// boundary must form a dimer under a cutoff smaller than their
// unwrapped distance.
func TestTermsPeriodicSeesImages(t *testing.T) {
	g := molecule.New()
	cell, _ := molecule.NewCellAngstrom(20, 20, 20)
	g.Cell = cell
	w1, w2 := molecule.Water(), molecule.Water()
	w2.Translate(17.5*chem.BohrPerAngstrom, 0, 0) // 2.5 Å across the boundary
	g.Append(w1)
	g.Append(w2)
	f, err := ByMolecule(g, 3, 1, Options{DimerCutoff: 3.5 * chem.BohrPerAngstrom})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.Terms().Dimers); n != 1 {
		t.Fatalf("periodic neighbors across the boundary: %d dimers, want 1", n)
	}
	open := g.Clone()
	open.Cell = nil
	fo, err := ByMolecule(open, 3, 1, Options{DimerCutoff: 3.5 * chem.BohrPerAngstrom})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fo.Terms().Dimers); n != 0 {
		t.Fatalf("open boundaries must not see images: %d dimers", n)
	}
}

// TestExtractPeriodicImageShift: a boundary-straddling dimer extracts as
// the compact nearest-image pair, and its energy matches the same pair
// built without wrapping.
func TestExtractPeriodicImageShift(t *testing.T) {
	g := molecule.New()
	cell, _ := molecule.NewCellAngstrom(20, 20, 20)
	g.Cell = cell
	w1, w2 := molecule.Water(), molecule.Water()
	w2.Translate(17.5*chem.BohrPerAngstrom, 0, 0)
	g.Append(w1)
	g.Append(w2)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := f.Extract(Polymer{Monomers: []int{0, 1}})
	// O–O distance must be the min-image 2.5 Å gap, not 17.5 Å.
	d := molecule.Dist(ex.Geom.Atoms[0].Pos, ex.Geom.Atoms[3].Pos)
	if want := 2.5 * chem.BohrPerAngstrom; math.Abs(d-want) > 1e-9 {
		t.Fatalf("extracted O–O distance %g Bohr, want %g (nearest image)", d, want)
	}
	// Reference: the same compact pair, built openly.
	ref := molecule.New()
	r1, r2 := molecule.Water(), molecule.Water()
	r2.Translate(-2.5*chem.BohrPerAngstrom, 0, 0)
	ref.Append(r1)
	ref.Append(r2)
	lj := &potential.LennardJones{}
	e1, _, err := lj.Evaluate(ex.Geom)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := lj.Evaluate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1-e2) > 1e-12 {
		t.Fatalf("image-shifted dimer energy %g, compact reference %g", e1, e2)
	}
	// Monomer extraction (single member) is untouched by the shift.
	exm := f.Extract(Polymer{Monomers: []int{1}})
	if exm.Geom.Atoms[0].Pos != g.Atoms[3].Pos {
		t.Fatal("monomer extraction must not shift positions")
	}
}

// TestTemplateImagesAreContinuous: a member whose atoms drift apart moves
// its centroid across half a box from its partner's. Images picked
// afresh at each geometry flip it by a lattice vector there, and the
// fragment energy jumps; images picked once keep the fragment geometry,
// and the energy, continuous.
func TestTemplateImagesAreContinuous(t *testing.T) {
	const L = 30.0
	g := molecule.New()
	cell, err := molecule.NewCell(L, L, L)
	if err != nil {
		t.Fatal(err)
	}
	g.Cell = cell
	w1, w2 := molecule.Water(), molecule.Water()
	w2.Translate(6, 0, 0)
	g.Append(w1)
	g.Append(w2)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Polymer{Monomers: []int{0, 1}}
	tpl := f.NewTemplate(p, f.MemberImages(p, func(a int) [3]float64 { return g.Atoms[a].Pos }))
	// Drag the second water's last H along x to where that water's
	// centroid sits half a box from the first's.
	at := func(x float64) func(int) [3]float64 {
		return func(a int) [3]float64 {
			pos := g.Atoms[a].Pos
			if a == 5 {
				pos[0] = x
			}
			return pos
		}
	}
	cross := 3*(L/2+f.Centroid(0)[0]) - g.Atoms[3].Pos[0] - g.Atoms[4].Pos[0]
	lo, hi := at(cross-1e-6), at(cross+1e-6)
	if f.MemberImages(p, lo) != nil || f.MemberImages(p, hi) == nil {
		t.Fatal("the dragged water's image does not flip at the crossing — the test is vacuous")
	}
	energy := func(ex *Extracted) float64 {
		e, _, err := (&potential.LennardJones{}).Evaluate(ex.Geom)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if d := math.Abs(energy(f.ExtractAt(p, hi)) - energy(f.ExtractAt(p, lo))); d < 1e-7 {
		t.Errorf("images picked afresh: energy moves %.3g Ha across the flip, expected a jump", d)
	}
	if d := math.Abs(energy(tpl.Extract(hi)) - energy(tpl.Extract(lo))); d > 1e-10 {
		t.Errorf("images picked once: energy jumps %.3g Ha across the crossing", d)
	}
}

// TestByMoleculeRejectsCrossBlockBonds: a covalent bond spanning two
// "molecules" (here a block size that splits real molecules) must be a
// descriptive error, not a silent cap.
func TestByMoleculeRejectsCrossBlockBonds(t *testing.T) {
	g := molecule.Water() // O–H bonds inside one 3-atom molecule
	w2 := molecule.Water()
	w2.Translate(6, 0, 0)
	g.Append(w2)
	// Block size 2 cuts each water's second O–H bond across blocks.
	if _, err := ByMolecule(g, 2, 1, Options{}); err == nil {
		t.Fatal("ByMolecule accepted a partition cutting covalent bonds")
	} else if got := err.Error(); !strings.Contains(got, "covalently bonded") || !strings.Contains(got, "molecule block") {
		t.Fatalf("error is not descriptive: %q", got)
	}
	// The legitimate 3-atom split still works and records no cut bonds.
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.cutBonds) != 0 {
		t.Fatalf("bond-closed partition recorded %d cut bonds", len(f.cutBonds))
	}
}

// TestPairResidualCutoffConsistency: with no dimer/trimer cutoffs every
// s_IJ is 1 and the residual vanishes; with a dimer cutoff the far
// pairs leave a non-zero residual.
func TestPairResidualCutoffConsistency(t *testing.T) {
	g := molecule.WaterCluster(12)
	charges := make([]float64, g.N())
	for i := range charges {
		charges[i] = 0.1 * float64(i%3-1)
	}
	pos := func(a int) [3]float64 { return g.Atoms[a].Pos }
	full, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := full.PairResidual(full.PairInclusion(), charges, pos, nil); r != 0 {
		t.Fatalf("complete expansion must have zero residual, got %g", r)
	}
	const dimerCut = 7 * chem.BohrPerAngstrom
	cut, err := ByMolecule(g, 3, 1, Options{DimerCutoff: dimerCut, MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := cut.PairResidual(cut.PairInclusion(), charges, pos, nil); r == 0 {
		t.Fatal("truncated expansion residual unexpectedly zero")
	}
}

// BenchmarkTermsCentroidCached measures the enumeration pass on a
// 500-monomer periodic water box with the once-per-pass centroid cache
// and cell list (the shipped path).
func BenchmarkTermsCentroidCached(b *testing.B) {
	benchTerms(b, false)
}

// BenchmarkTermsBruteRecompute measures the same enumeration with the
// pre-fix shape: brute-force pair scans whose distances recompute both
// centroids per call via MonomerDist.
func BenchmarkTermsBruteRecompute(b *testing.B) {
	benchTerms(b, true)
}

func benchTerms(b *testing.B, recompute bool) {
	// MBE2 on 512 monomers, so both variants measure the same dimer
	// enumeration; the trimer pass benefits even more (it was O(nm³)
	// MonomerDist calls).
	g := molecule.WaterBox(8, 8, 8, 1) // 512 monomers
	const cut = 6 * chem.BohrPerAngstrom
	f, err := ByMolecule(g, 3, 1, Options{DimerCutoff: cut, MaxOrder: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !recompute {
			if terms := f.Terms(); len(terms.Dimers) == 0 {
				b.Fatal("no dimers")
			}
			continue
		}
		// The old code path: O(nm²) MonomerDist calls, each recomputing
		// both centroids from their atoms.
		nm := len(f.Monomers)
		count := 0
		for i := 0; i < nm; i++ {
			for j := i + 1; j < nm; j++ {
				if f.MonomerDist(i, j) <= cut {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("no dimers")
		}
	}
}
