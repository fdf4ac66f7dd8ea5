package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/neighbor"
)

// MonomerSpec describes one monomer of a simulated workload: where it
// sits and how large its fragment calculations are.
type MonomerSpec struct {
	Centroid [3]float64 // Å
	Atoms    int
	NBf      int
	NOcc     int
	NAux     int
	// Bonded lists covalently linked monomers (H-cap dependencies);
	// empty for molecular crystals.
	Bonded []int
}

// Polymer is a compact monomer/dimer/trimer reference.
type Polymer struct {
	M     [3]int32
	Order int8
}

func (p Polymer) members() []int32 { return p.M[:p.Order] }

// Workload is a fragment workload: monomers, enumerated polymers under
// the cutoffs, and the dependency metadata the simulator needs.
type Workload struct {
	Monomers  []MonomerSpec
	Polymers  []Polymer // the whole enumeration: monomers, dimers, then trimers
	DimerCut  float64   // Å
	TrimerCut float64   // Å

	tasks   []Polymer    // the polymers whose MBE coefficient is non-zero, in Polymers order
	graph   *coord.Graph // shared scheduling task graph (internal/coord), one node per task
	refMono int
}

// Graph returns the workload's scheduling task graph in the shared
// internal/coord representation: per-task members, dependency touch
// sets (members ∪ bonded neighbours) and queue priorities.
func (w *Workload) Graph() *coord.Graph { return w.graph }

// Tasks returns the polymers the simulator evaluates every step, indexed
// like Graph: those of Polymers whose MBE coefficient
// (coord.Coefficients) is non-zero — the set the live engine dispatches.
// The slice is the workload's own; callers must not modify it.
func (w *Workload) Tasks() []Polymer { return w.tasks }

// RefMono returns the reference monomer the queue priorities are
// anchored to (the monomer farthest from the system centroid).
func (w *Workload) RefMono() int { return w.refMono }

// NewWorkload enumerates monomers, dimers within dimerCut and trimers
// whose three pairwise centroid distances are within trimerCut through
// the shared cell list (internal/neighbor; the full 2M-electron
// workloads have >10⁴ monomers and >10⁶ polymers). A trimerCut ≤ 0
// means no trimers. When trimerCut exceeds dimerCut, a trimer's dimers
// outside the dimer cutoff follow the dimers in lexicographic order, as
// fragment.Terms' extra dimers do: evaluated for the trimer's ΔE, no
// term of their own.
func NewWorkload(monomers []MonomerSpec, dimerCut, trimerCut float64) *Workload {
	w := &Workload{Monomers: monomers, DimerCut: dimerCut, TrimerCut: trimerCut}
	n := len(monomers)
	centroids := make([][3]float64, n)
	for i, m := range monomers {
		centroids[i] = m.Centroid
		w.Polymers = append(w.Polymers, Polymer{M: [3]int32{int32(i)}, Order: 1})
	}
	nb := neighbor.New(centroids)
	var dimers [][2]int32 // lexicographic, as neighbor yields them
	nb.Pairs(dimerCut, func(i, j int) bool {
		dimers = append(dimers, [2]int32{int32(i), int32(j)})
		return true
	})
	var trimers [][3]int32
	if trimerCut > 0 {
		nb.Triples(trimerCut, func(i, j, k int) bool {
			trimers = append(trimers, [3]int32{int32(i), int32(j), int32(k)})
			return true
		})
	}
	sub := func(tr [3]int32) [3][2]int32 {
		return [3][2]int32{{tr[0], tr[1]}, {tr[0], tr[2]}, {tr[1], tr[2]}}
	}
	comparePair := func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
	termDimers := len(dimers)
	// find returns d's position in dimers: the in-cutoff dimers and the
	// extra ones are each sorted.
	find := func(d [2]int32) (int, bool) {
		if i, ok := slices.BinarySearchFunc(dimers[:termDimers], d, comparePair); ok {
			return i, true
		}
		i, ok := slices.BinarySearchFunc(dimers[termDimers:], d, comparePair)
		return termDimers + i, ok
	}
	var extra [][2]int32
	for _, tr := range trimers {
		for _, d := range sub(tr) {
			if _, ok := find(d); !ok {
				extra = append(extra, d)
			}
		}
	}
	slices.SortFunc(extra, comparePair)
	dimers = append(dimers, slices.Compact(extra)...)
	triDimers := make([][3]int32, len(trimers))
	for x, tr := range trimers {
		for k, d := range sub(tr) {
			i, _ := find(d)
			triDimers[x][k] = int32(n + i)
		}
	}
	for _, d := range dimers {
		w.Polymers = append(w.Polymers, Polymer{M: [3]int32{d[0], d[1]}, Order: 2})
	}
	for _, tr := range trimers {
		w.Polymers = append(w.Polymers, Polymer{M: tr, Order: 3})
	}
	coeff := coord.Coefficients(n, dimers, termDimers, trimers, triDimers)
	for pi, p := range w.Polymers {
		if coeff[pi] != 0 {
			w.tasks = append(w.tasks, p)
		}
	}
	w.buildDependencies()
	return w
}

// buildDependencies computes the tasks' touch sets, queue priorities and
// the reference monomer, assembling the shared internal/coord task graph.
func (w *Workload) buildDependencies() {
	n := len(w.Monomers)
	members := make([][]int32, len(w.tasks))
	touch := make([][]int32, len(w.tasks))
	for pi, p := range w.tasks {
		members[pi] = p.members()
		seen := map[int32]bool{}
		var t []int32
		for _, m := range p.members() {
			if !seen[m] {
				seen[m] = true
				t = append(t, m)
			}
			for _, b := range w.Monomers[m].Bonded {
				if !seen[int32(b)] {
					seen[int32(b)] = true
					t = append(t, int32(b))
				}
			}
		}
		touch[pi] = t
	}
	// Reference monomer (farthest from the system centroid) and queue
	// priorities via the shared policy computation (DESIGN.md §6).
	var c [3]float64
	for _, m := range w.Monomers {
		for k := 0; k < 3; k++ {
			c[k] += m.Centroid[k]
		}
	}
	for k := 0; k < 3; k++ {
		c[k] /= float64(n)
	}
	var dist []float64
	w.refMono, dist = coord.Priorities(n, members,
		func(mi int) [3]float64 { return w.Monomers[mi].Centroid }, c, -1)
	g, err := coord.NewGraph(n, members, touch, dist)
	if err != nil {
		// The workload enumerations above construct consistent inputs;
		// failing here is a programming error, not a user error.
		panic(fmt.Sprintf("cluster: inconsistent workload graph: %v", err))
	}
	w.graph = g
}

// Size returns the fragment dimensions of a polymer (sums over members).
func (w *Workload) Size(p Polymer) (nbf, nocc, naux int) {
	for _, m := range p.members() {
		nbf += w.Monomers[m].NBf
		nocc += w.Monomers[m].NOcc
		naux += w.Monomers[m].NAux
	}
	return
}

// Electrons returns the total electron count of the workload.
func (w *Workload) Electrons() int {
	n := 0
	for _, m := range w.Monomers {
		n += 2 * m.NOcc
	}
	return n
}

// CountByOrder returns the number of monomers, dimers and trimers.
func (w *Workload) CountByOrder() (m1, m2, m3 int) {
	for _, p := range w.Polymers {
		switch p.Order {
		case 1:
			m1++
		case 2:
			m2++
		default:
			m3++
		}
	}
	return
}

// --- workload builders for the paper's benchmark systems ----------------

// ccpvdz-like per-element function counts (Cartesian): H 5, C/N/O 15;
// auxiliary ≈ 3.3 × orbital.
func specFromComposition(heavy, hydrogens int, centroid [3]float64) MonomerSpec {
	nbf := 15*heavy + 5*hydrogens
	return MonomerSpec{
		Centroid: centroid,
		Atoms:    heavy + hydrogens,
		NBf:      nbf,
		NAux:     nbf * 33 / 10,
	}
}

// UreaWorkload builds a spherical urea-crystal workload with nMolecules
// molecules grouped molsPerMonomer per monomer (the paper uses 4 → 32
// atoms, 128 electrons per monomer) and the given cutoffs in Å.
func UreaWorkload(nMolecules, molsPerMonomer int, dimerCut, trimerCut float64) *Workload {
	cents := latticeSphereCentroids(nMolecules, 5.565, 4.684)
	var monomers []MonomerSpec
	for i := 0; i < len(cents); i += molsPerMonomer {
		hi := i + molsPerMonomer
		if hi > len(cents) {
			hi = len(cents)
		}
		var c [3]float64
		for _, x := range cents[i:hi] {
			for k := 0; k < 3; k++ {
				c[k] += x[k]
			}
		}
		for k := 0; k < 3; k++ {
			c[k] /= float64(hi - i)
		}
		mols := hi - i
		// Urea CH4N2O: 4 heavy + 4 H, 32 electrons per molecule.
		sp := specFromComposition(4*mols, 4*mols, c)
		sp.NOcc = 16 * mols
		monomers = append(monomers, sp)
	}
	return NewWorkload(monomers, dimerCut, trimerCut)
}

// ParacetamolWorkload builds the Fig. 7 strong-scaling system: an
// nMolecules paracetamol sphere, one molecule per monomer.
func ParacetamolWorkload(nMolecules int, dimerCut, trimerCut float64) *Workload {
	cents := latticeSphereCentroids(nMolecules, 7.1, 7.1)
	var monomers []MonomerSpec
	for _, c := range cents {
		// C8H9NO2: 11 heavy + 9 H, 80 electrons.
		sp := specFromComposition(11, 9, c)
		sp.NOcc = 40
		monomers = append(monomers, sp)
	}
	return NewWorkload(monomers, dimerCut, trimerCut)
}

// FibrilWorkload builds a synthetic β-fibril workload: strands ×
// residuesPerStrand glycine-like monomers (7–16 atoms) with covalent
// links along each strand (H-cap dependencies), 4.8 Å inter-strand
// spacing and 3.63 Å residue rise — the 6PQ5/2BEG analogues.
func FibrilWorkload(strands, residuesPerStrand int, dimerCut, trimerCut float64) *Workload {
	var monomers []MonomerSpec
	idx := func(s, r int) int { return s*residuesPerStrand + r }
	for s := 0; s < strands; s++ {
		for r := 0; r < residuesPerStrand; r++ {
			c := [3]float64{float64(r) * 3.63, 0, float64(s) * 4.8}
			// Gly residue: 3 heavy + 4 H (≈10 atoms with termini mix).
			sp := specFromComposition(3, 4, c)
			sp.NOcc = 15
			if r > 0 {
				sp.Bonded = append(sp.Bonded, idx(s, r-1))
			}
			if r < residuesPerStrand-1 {
				sp.Bonded = append(sp.Bonded, idx(s, r+1))
			}
			monomers = append(monomers, sp)
		}
	}
	return NewWorkload(monomers, dimerCut, trimerCut)
}

// UreaWorkloadPolymerTarget sizes a urea workload so that the polymer
// count lands near target (within ~15 %), used for weak-scaling studies
// with a constant number of polymers per GCD (Fig. 8).
func UreaWorkloadPolymerTarget(target, molsPerMonomer int, dimerCut, trimerCut float64) *Workload {
	lo, hi := molsPerMonomer*8, molsPerMonomer*8
	// Grow hi until it overshoots.
	for {
		w := UreaWorkload(hi, molsPerMonomer, dimerCut, trimerCut)
		if len(w.Polymers) >= target {
			break
		}
		hi *= 2
	}
	var best *Workload
	for iter := 0; iter < 20 && lo < hi; iter++ {
		mid := (lo + hi) / 2
		mid -= mid % molsPerMonomer
		if mid <= lo {
			break
		}
		w := UreaWorkload(mid, molsPerMonomer, dimerCut, trimerCut)
		best = w
		n := len(w.Polymers)
		switch {
		case n > target*115/100:
			hi = mid
		case n < target*85/100:
			lo = mid
		default:
			return w
		}
	}
	if best == nil {
		best = UreaWorkload(lo, molsPerMonomer, dimerCut, trimerCut)
	}
	return best
}

// latticeSphereCentroids returns n centroids filling a sphere cut from a
// tetragonal lattice with two sites per cell (Å).
func latticeSphereCentroids(n int, a, c float64) [][3]float64 {
	var out [][3]float64
	// Grow the radius until the sphere holds n sites.
	density := 2 / (a * a * c)
	radius := math.Cbrt(3 * float64(n) / (4 * math.Pi * density))
	for len(out) < n {
		out = out[:0]
		nmax := int(radius/math.Min(a, c)) + 2
		for i := -nmax; i <= nmax && len(out) < n+64; i++ {
			for j := -nmax; j <= nmax && len(out) < n+64; j++ {
				for k := -nmax; k <= nmax && len(out) < n+64; k++ {
					for half := 0; half < 2; half++ {
						x := float64(i) * a
						y := float64(j) * a
						z := float64(k) * c
						if half == 1 {
							x += a / 2
							y += a / 2
							z += c / 2
						}
						if math.Sqrt(x*x+y*y+z*z) <= radius {
							out = append(out, [3]float64{x, y, z})
						}
					}
				}
			}
		}
		if len(out) < n {
			radius *= 1.05
		}
	}
	return out[:n]
}

// String summarises the workload.
func (w *Workload) String() string {
	m1, m2, m3 := w.CountByOrder()
	return fmt.Sprintf("%d monomers, %d dimers, %d trimers (%d polymers, %d electrons)",
		m1, m2, m3, len(w.Polymers), w.Electrons())
}
