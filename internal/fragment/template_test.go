package fragment

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
)

// oracleExtracted is Extracted as it was before extraction templates:
// outer-atom positions in a map keyed by cap, inner positions found by
// a linear search of ParentAtom.
type oracleExtracted struct {
	Geom       *molecule.Geometry
	ParentAtom []int
	Caps       []Cap

	outerPositions map[Cap][3]float64
}

// oracleExtractImaged is the per-task extraction the templates replace,
// kept verbatim as their oracle.
func (f *Fragmentation) oracleExtractImaged(p Polymer, pos func(atom int) [3]float64, images [][3]float64) *oracleExtracted {
	if images != nil {
		pos = f.oracleImageShifted(p, pos, images)
	}
	inSet := map[int]bool{}
	for _, mi := range p.Monomers {
		for _, a := range f.Monomers[mi].Atoms {
			inSet[a] = true
		}
	}
	ex := &oracleExtracted{Geom: molecule.New()}
	var atoms []int
	for _, mi := range p.Monomers {
		atoms = append(atoms, f.Monomers[mi].Atoms...)
	}
	sort.Ints(atoms)
	for _, a := range atoms {
		xyz := pos(a)
		ex.Geom.AddAtom(f.Geom.Atoms[a].Z, xyz[0], xyz[1], xyz[2])
		ex.ParentAtom = append(ex.ParentAtom, a)
	}
	for _, b := range f.cutBonds {
		var inner, outer int
		switch {
		case inSet[b[0]] && !inSet[b[1]]:
			inner, outer = b[0], b[1]
		case inSet[b[1]] && !inSet[b[0]]:
			inner, outer = b[1], b[0]
		default:
			continue // bond fully inside or fully outside
		}
		cap := Cap{Inner: inner, Outer: outer}
		ex.Caps = append(ex.Caps, cap)
		if ex.outerPositions == nil {
			ex.outerPositions = map[Cap][3]float64{}
		}
		in, out := pos(inner), nearestImage(f.Geom.Cell, pos(outer), pos(inner))
		ex.outerPositions[cap] = out
		capXYZ := capPosition(in, out, capDistance)
		ex.Geom.AddAtom(1, capXYZ[0], capXYZ[1], capXYZ[2])
	}
	return ex
}

func (f *Fragmentation) oracleImageShifted(p Polymer, pos func(atom int) [3]float64, images [][3]float64) func(atom int) [3]float64 {
	return func(a int) [3]float64 {
		xyz := pos(a)
		for k, mi := range p.Monomers[1:] {
			if sh := images[k]; mi == f.atomMonomer[a] && sh != ([3]float64{}) {
				xyz[0] += sh[0]
				xyz[1] += sh[1]
				xyz[2] += sh[2]
			}
		}
		return xyz
	}
}

func (ex *oracleExtracted) FoldGradient(fragGrad []float64, factor float64, parentGrad []float64) {
	nReal := len(ex.ParentAtom)
	for i, pa := range ex.ParentAtom {
		for k := 0; k < 3; k++ {
			parentGrad[3*pa+k] += factor * fragGrad[3*i+k]
		}
	}
	for ci, cap := range ex.Caps {
		gi := 3 * (nReal + ci)
		inner := ex.posOfParent(cap.Inner)
		outer := ex.outerPositions[cap]
		var u [3]float64
		var norm float64
		for k := 0; k < 3; k++ {
			u[k] = outer[k] - inner[k]
			norm += u[k] * u[k]
		}
		norm = math.Sqrt(norm)
		d := capDistance
		for l := 0; l < 3; l++ {
			var gOut float64
			for k := 0; k < 3; k++ {
				jac := d / norm * (delta(k, l) - u[k]*u[l]/(norm*norm))
				gOut += fragGrad[gi+k] * jac
			}
			gIn := fragGrad[gi+l] - gOut
			parentGrad[3*cap.Inner+l] += factor * gIn
			parentGrad[3*cap.Outer+l] += factor * gOut
		}
	}
}

func (ex *oracleExtracted) posOfParent(parent int) [3]float64 {
	for i, pa := range ex.ParentAtom {
		if pa == parent {
			return ex.Geom.Atoms[i].Pos
		}
	}
	panic("fragment: cap parent atom not in fragment")
}

// jittered returns a position source that moves every atom of g by up
// to ±0.05 Bohr per component, with the y coordinate of every seventh
// atom set to −0.0, so a zero shift added where none is due shows in
// its sign bit.
func jittered(g *molecule.Geometry, seed int64) func(atom int) [3]float64 {
	rng := rand.New(rand.NewSource(seed))
	pos := make([][3]float64, g.N())
	for a := range pos {
		for k := 0; k < 3; k++ {
			pos[a][k] = g.Atoms[a].Pos[k] + 0.1*(rng.Float64()-0.5)
		}
		if a%7 == 3 {
			pos[a][1] = math.Copysign(0, -1)
		}
	}
	return func(a int) [3]float64 { return pos[a] }
}

// checkTemplateMatchesOracle extracts p at pos with the given member
// images through a template and through the oracle, and requires the
// same bits: positions, atomic numbers, parent atoms, caps, and the
// folded parent gradient of a random fragment gradient.
func checkTemplateMatchesOracle(t *testing.T, f *Fragmentation, p Polymer, pos func(atom int) [3]float64, images [][3]float64, rng *rand.Rand) {
	t.Helper()
	got := f.NewTemplate(p, images).Extract(pos)
	want := f.oracleExtractImaged(p, pos, images)
	if got.Geom.N() != want.Geom.N() {
		t.Fatalf("polymer %s: %d atoms, oracle %d", p.Key(), got.Geom.N(), want.Geom.N())
	}
	for i, a := range got.Geom.Atoms {
		w := want.Geom.Atoms[i]
		if a.Z != w.Z {
			t.Fatalf("polymer %s atom %d: Z %d, oracle %d", p.Key(), i, a.Z, w.Z)
		}
		for k := 0; k < 3; k++ {
			if math.Float64bits(a.Pos[k]) != math.Float64bits(w.Pos[k]) {
				t.Fatalf("polymer %s atom %d: position %v, oracle %v", p.Key(), i, a.Pos, w.Pos)
			}
		}
	}
	if !slices.Equal(got.ParentAtom, want.ParentAtom) {
		t.Fatalf("polymer %s: ParentAtom %v, oracle %v", p.Key(), got.ParentAtom, want.ParentAtom)
	}
	if !slices.Equal(got.Caps, want.Caps) {
		t.Fatalf("polymer %s: caps %v, oracle %v", p.Key(), got.Caps, want.Caps)
	}
	fragGrad := make([]float64, 3*got.Geom.N())
	for i := range fragGrad {
		fragGrad[i] = rng.NormFloat64()
	}
	gGot, gWant := make([]float64, 3*f.Geom.N()), make([]float64, 3*f.Geom.N())
	got.FoldGradient(fragGrad, -1.3, gGot)
	want.FoldGradient(fragGrad, -1.3, gWant)
	for i := range gGot {
		if math.Float64bits(gGot[i]) != math.Float64bits(gWant[i]) {
			t.Fatalf("polymer %s: folded gradient[%d] %v, oracle %v", p.Key(), i, gGot[i], gWant[i])
		}
	}
}

// Templates reproduce the per-task extraction they replace bit for bit:
// on a capped chain (middle residues carry two caps), on a dimer
// straddling a periodic boundary, and on every polymer of a periodic
// water box under MBE3.
func TestTemplateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("polyglycine", func(t *testing.T) {
		g, residues := molecule.Polyglycine(4)
		f, err := New(g, residues, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pos := jittered(g, 1)
		twoCaps := false
		for _, p := range f.Terms().All() {
			checkTemplateMatchesOracle(t, f, p, pos, nil, rng)
			twoCaps = twoCaps || len(f.Extract(p).Caps) == 2
		}
		if !twoCaps {
			t.Fatal("no polymer carries two caps — the test is vacuous")
		}
	})

	t.Run("periodic-dimer", func(t *testing.T) {
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
		pos := jittered(g, 2)
		p := Polymer{Monomers: []int{0, 1}}
		images := f.MemberImages(p, pos)
		if images == nil {
			t.Fatal("the straddling dimer has no image shift — the test is vacuous")
		}
		checkTemplateMatchesOracle(t, f, p, pos, images, rng)
	})

	t.Run("waterbox-mbe3", func(t *testing.T) {
		g := molecule.WaterBox(3, 3, 3, 1)
		f, err := ByMolecule(g, 3, 1, Options{MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8})
		if err != nil {
			t.Fatal(err)
		}
		setup := func(a int) [3]float64 { return g.Atoms[a].Pos }
		pos := jittered(g, 3)
		imaged := 0
		for _, p := range f.Terms().All() {
			images := f.MemberImages(p, setup)
			if images != nil {
				imaged++
			}
			checkTemplateMatchesOracle(t, f, p, pos, images, rng)
		}
		if imaged == 0 {
			t.Fatal("no polymer straddles the boundary — the test is vacuous")
		}
	})
}

// Extracting from a template allocates the Extracted with its Geometry,
// and its atoms, plus the outer-atom positions when the polymer has
// caps — whatever the polymer's size.
func TestTemplateExtractAllocs(t *testing.T) {
	box := molecule.WaterBox(3, 3, 3, 1)
	fb, err := ByMolecule(box, 3, 1, Options{MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8})
	if err != nil {
		t.Fatal(err)
	}
	chain, residues := molecule.Polyglycine(4)
	fc, err := New(chain, residues, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The first trimer of the box with a member image.
	var imagedTrimer Polymer
	boxPos := func(a int) [3]float64 { return box.Atoms[a].Pos }
	for _, p := range fb.Terms().Trimers {
		if fb.MemberImages(p, boxPos) != nil {
			imagedTrimer = p
			break
		}
	}
	if imagedTrimer.Monomers == nil {
		t.Fatal("no trimer of the box straddles the boundary")
	}
	for _, tc := range []struct {
		name string
		f    *Fragmentation
		p    Polymer
		max  float64
	}{
		{"monomer", fb, Polymer{Monomers: []int{0}}, 2},
		{"dimer", fb, Polymer{Monomers: []int{0, 1}}, 2},
		{"imaged-trimer", fb, imagedTrimer, 2},
		{"capped-monomer", fc, Polymer{Monomers: []int{1}}, 3},
		{"capped-dimer", fc, Polymer{Monomers: []int{1, 2}}, 3},
	} {
		pos := func(a int) [3]float64 { return tc.f.Geom.Atoms[a].Pos }
		tpl := tc.f.NewTemplate(tc.p, tc.f.MemberImages(tc.p, pos))
		if capped := len(tpl.Extract(pos).Caps) > 0; capped != (tc.max == 3) {
			t.Fatalf("%s: capped = %v, table says otherwise", tc.name, capped)
		}
		if n := testing.AllocsPerRun(100, func() { tpl.Extract(pos) }); n > tc.max {
			t.Errorf("%s: %v allocations per extraction, want ≤ %v", tc.name, n, tc.max)
		}
	}
}
