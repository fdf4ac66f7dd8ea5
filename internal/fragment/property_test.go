package fragment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

// additiveEvaluator returns energy = c·(number of atoms) with zero
// gradient. For cap-free fragmentations the MBE identity then demands
// E_MBE == c·N_total for *any* cutoffs and any MBE order: every ΔE_IJ
// and ΔE_IJK vanishes identically, so the coefficient algebra
// (Terms.Coeff) is exercised end to end.
type additiveEvaluator struct{ c float64 }

func (a additiveEvaluator) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	return a.c * float64(g.N()), make([]float64, 3*g.N()), nil
}

func TestQuickMBEAdditiveIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g := molecule.WaterCluster(n)
		opts := Options{
			MaxOrder:     2 + rng.Intn(2),
			DimerCutoff:  4 + 20*rng.Float64(),
			TrimerCutoff: 4 + 16*rng.Float64(),
		}
		frag, err := ByMolecule(g, 3, 1, opts)
		if err != nil {
			return false
		}
		ev := additiveEvaluator{c: 0.5 + rng.Float64()}
		res, err := frag.Compute(ev)
		if err != nil {
			return false
		}
		want := ev.c * float64(g.N())
		return math.Abs(res.Energy-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Coefficient-sum identity: Σ_p coeff(p)·atoms(p) = N_total for cap-free
// partitions (each atom must be counted exactly once net).
func TestQuickCoefficientAtomBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := molecule.WaterCluster(n)
		frag, err := ByMolecule(g, 3, 1, Options{
			DimerCutoff:  3 + 25*rng.Float64(),
			TrimerCutoff: 3 + 20*rng.Float64(),
		})
		if err != nil {
			return false
		}
		terms := frag.Terms()
		var total float64
		for i, p := range terms.All() {
			atoms := 0
			for _, mi := range p.Monomers {
				atoms += len(frag.Monomers[mi].Atoms)
			}
			total += terms.Coeff(i) * float64(atoms)
		}
		return math.Abs(total-float64(g.N())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// mbeBoth evaluates the MBE energy and gradient of a water cluster
// partition with and without electrostatic embedding (LJ surrogate
// with fixed water charges, so both are exact functionals of the
// geometry).
func mbeBoth(t *testing.T, g *molecule.Geometry, monomers [][]int, embed bool) (float64, []float64) {
	t.Helper()
	f, err := New(g, monomers, Options{MaxOrder: 2, DimerCutoff: 12})
	if err != nil {
		t.Fatal(err)
	}
	ev := &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
	var res *Result
	if embed {
		res, err = f.ComputeEmbedded(ev, nil, EmbedOptions{SCC: 1, Damping: 0.2})
	} else {
		res, err = f.Compute(ev)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy, res.Gradient
}

func clusterPartition(n int) [][]int {
	monomers := make([][]int, n)
	for m := 0; m < n; m++ {
		monomers[m] = []int{3 * m, 3*m + 1, 3*m + 2}
	}
	return monomers
}

// The MBE energy must be invariant — and the gradient equivariant —
// under rigid translation and rotation of the whole system, with and
// without embedding (the embedding field rides on the atoms, so it
// co-moves).
func TestInvarianceRigidMotion(t *testing.T) {
	const n = 4
	g := molecule.WaterCluster(n)
	monomers := clusterPartition(n)
	for _, embed := range []bool{false, true} {
		e0, g0 := mbeBoth(t, g, monomers, embed)

		tr := g.Clone()
		tr.Translate(2.5, -1.75, 3.25)
		e1, g1 := mbeBoth(t, tr, monomers, embed)
		if math.Abs(e1-e0) > 1e-11 {
			t.Errorf("embed=%v: translation changed the energy by %.2e", embed, e1-e0)
		}
		for i := range g0 {
			if math.Abs(g1[i]-g0[i]) > 1e-11 {
				t.Fatalf("embed=%v: translation changed gradient[%d] by %.2e", embed, i, g1[i]-g0[i])
			}
		}

		const theta = 0.83
		rot := g.Clone()
		rot.RotateZ(theta)
		e2, g2 := mbeBoth(t, rot, monomers, embed)
		if math.Abs(e2-e0) > 1e-11 {
			t.Errorf("embed=%v: rotation changed the energy by %.2e", embed, e2-e0)
		}
		s, c := math.Sin(theta), math.Cos(theta)
		for a := 0; a < len(g0)/3; a++ {
			wantX := c*g0[3*a] - s*g0[3*a+1]
			wantY := s*g0[3*a] + c*g0[3*a+1]
			if math.Abs(g2[3*a]-wantX) > 1e-11 || math.Abs(g2[3*a+1]-wantY) > 1e-11 ||
				math.Abs(g2[3*a+2]-g0[3*a+2]) > 1e-11 {
				t.Fatalf("embed=%v: gradient of atom %d did not co-rotate", embed, a)
			}
		}
	}
}

// Relabeling the monomers (any permutation of the partition) must not
// change the assembled energy or gradient, with and without embedding:
// the expansion is a set, not a sequence.
func TestInvarianceMonomerRelabeling(t *testing.T) {
	const n = 5
	g := molecule.WaterCluster(n)
	base := clusterPartition(n)
	perm := [][]int{base[3], base[0], base[4], base[2], base[1]}
	for _, embed := range []bool{false, true} {
		e0, g0 := mbeBoth(t, g, base, embed)
		e1, g1 := mbeBoth(t, g, perm, embed)
		if math.Abs(e1-e0) > 1e-12 {
			t.Errorf("embed=%v: relabeling changed the energy by %.2e", embed, e1-e0)
		}
		for i := range g0 {
			if math.Abs(g1[i]-g0[i]) > 1e-12 {
				t.Fatalf("embed=%v: relabeling changed gradient[%d] by %.2e", embed, i, g1[i]-g0[i])
			}
		}
	}
}

// Touch sets always contain the polymer's own monomers and are sorted.
func TestQuickTouchSetContainsMembers(t *testing.T) {
	g, residues := molecule.Polyglycine(5)
	frag, err := New(g, residues, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range frag.Terms().All() {
		ts := frag.TouchSet(p)
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("touch set not sorted/unique: %v", ts)
			}
		}
		for _, m := range p.Monomers {
			found := false
			for _, x := range ts {
				if x == m {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("touch set %v missing member %d", ts, m)
			}
		}
	}
}
