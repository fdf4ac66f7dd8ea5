// Package fragment implements the many-body expansion (MBE) molecular
// fragmentation of the paper (§V-B): the system is partitioned into
// monomers; dimer and trimer corrections within distance cutoffs
// reconstruct the total energy and gradient,
//
//	E = Σ_I E_I + Σ_{I<J} ΔE_IJ + Σ_{I<J<K} ΔE_IJK
//
// with ΔE_IJ = E_IJ − E_I − E_J and
// ΔE_IJK = E_IJK − E_IJ − E_IK − E_JK + E_I + E_J + E_K.
//
// Fragments whose monomers are covalently bonded are severed at single
// bonds and capped with hydrogens (H-caps); cap positions are functions
// of the two atoms of the cut bond, and the cap forces are distributed
// back onto those atoms with the exact chain rule.
package fragment

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/neighbor"
)

// Monomer is a set of atom indices of the parent system treated as one
// fragmentation unit.
type Monomer struct {
	Atoms []int
}

// Polymer identifies a monomer, dimer or trimer by the sorted indices of
// its constituent monomers.
type Polymer struct {
	Monomers []int // 1, 2 or 3 sorted monomer indices
}

// Order returns 1, 2 or 3.
func (p Polymer) Order() int { return len(p.Monomers) }

// Key returns a canonical map key.
func (p Polymer) Key() string {
	switch len(p.Monomers) {
	case 1:
		return fmt.Sprintf("%d", p.Monomers[0])
	case 2:
		return fmt.Sprintf("%d-%d", p.Monomers[0], p.Monomers[1])
	default:
		return fmt.Sprintf("%d-%d-%d", p.Monomers[0], p.Monomers[1], p.Monomers[2])
	}
}

// Options controls fragmentation.
type Options struct {
	// DimerCutoff and TrimerCutoff are centroid-distance thresholds in
	// Bohr. A dimer (I,J) is included when dist(I,J) ≤ DimerCutoff; a
	// trimer when all three pairwise distances are ≤ TrimerCutoff.
	//
	// The zero value means *no cutoff* (+Inf) — this is the one place
	// that convention is defined; every consumer goes through fill().
	// Negative and NaN cutoffs are invalid and rejected by New with an
	// error (they would silently produce an expansion with no dimers at
	// all); +Inf is valid and means no cutoff.
	DimerCutoff  float64
	TrimerCutoff float64
	// MaxOrder is 2 for MBE2, 3 for MBE3 (default 3).
	MaxOrder int
}

const (
	// bondScale scales covalent radii for bond detection.
	bondScale = 1.25
	// capDistance is the H-cap bond length in Bohr (1.09 Å).
	capDistance = 1.09 * chem.BohrPerAngstrom
)

func (o *Options) fill() {
	if o.MaxOrder == 0 {
		o.MaxOrder = 3
	}
	// 0 means no cutoff — see the Options.DimerCutoff doc, the single
	// home of that convention. Negative values never reach here (New
	// rejects them).
	if o.DimerCutoff == 0 {
		o.DimerCutoff = math.Inf(1)
	}
	if o.TrimerCutoff == 0 {
		o.TrimerCutoff = math.Inf(1)
	}
}

// Fragmentation holds the monomer partition and bond-cut bookkeeping for
// a molecular system.
type Fragmentation struct {
	Geom     *molecule.Geometry
	Monomers []Monomer
	Opts     Options

	atomMonomer []int    // atom index → monomer index
	cutBonds    [][2]int // bonds (a, b) crossing monomer boundaries
}

// New builds a Fragmentation from an explicit monomer partition. Every
// atom must belong to exactly one monomer. Bonds crossing monomer
// boundaries are detected from covalent radii (one cell-list pass) and
// recorded for H-capping.
func New(g *molecule.Geometry, monomers [][]int, opts Options) (*Fragmentation, error) {
	f, err := newPartition(g, monomers, opts)
	if err != nil {
		return nil, err
	}
	for _, b := range g.Bonds(bondScale) {
		if f.atomMonomer[b[0]] != f.atomMonomer[b[1]] {
			f.cutBonds = append(f.cutBonds, b)
		}
	}
	return f, nil
}

// newPartition validates a monomer partition and builds the
// Fragmentation without cut-bond detection — the shared core of New
// (which detects cut bonds) and ByMolecule (which has proven the
// partition bond-closed, so the scan would find nothing).
func newPartition(g *molecule.Geometry, monomers [][]int, opts Options) (*Fragmentation, error) {
	if !(opts.DimerCutoff >= 0) || !(opts.TrimerCutoff >= 0) {
		return nil, fmt.Errorf("fragment: negative or NaN cutoff (dimer %g, trimer %g Bohr); use 0 for no cutoff",
			opts.DimerCutoff, opts.TrimerCutoff)
	}
	opts.fill()
	f := &Fragmentation{Geom: g, Opts: opts}
	f.atomMonomer = make([]int, g.N())
	for i := range f.atomMonomer {
		f.atomMonomer[i] = -1
	}
	for mi, atoms := range monomers {
		f.Monomers = append(f.Monomers, Monomer{Atoms: append([]int(nil), atoms...)})
		for _, a := range atoms {
			if a < 0 || a >= g.N() {
				return nil, fmt.Errorf("fragment: atom index %d out of range", a)
			}
			if f.atomMonomer[a] != -1 {
				return nil, fmt.Errorf("fragment: atom %d assigned to two monomers", a)
			}
			f.atomMonomer[a] = mi
		}
	}
	for i, m := range f.atomMonomer {
		if m == -1 {
			return nil, fmt.Errorf("fragment: atom %d not assigned to any monomer", i)
		}
	}
	return f, nil
}

// ByMolecule partitions a geometry into monomers of consecutive
// molecules of size atomsPerMol (for the crystal/cluster builders whose
// atoms are emitted molecule by molecule), grouping molsPerMonomer
// molecules into each monomer (the paper uses 1 for paracetamol and 4
// for the urea runs).
//
// It validates that every molecule block really is a whole molecule:
// a covalent bond crossing two blocks means the geometry is not
// molecule-regular (a builder emitted atoms out of order, or the
// system is covalently linked) and is rejected with a descriptive
// error rather than silently severed and H-capped. The proof of
// closure also means no monomer boundary can cut a bond, so the
// per-fragmentation cut-bond scan of New is skipped entirely.
// atomsPerMol or molsPerMonomer below 1 is an error.
func ByMolecule(g *molecule.Geometry, atomsPerMol, molsPerMonomer int, opts Options) (*Fragmentation, error) {
	// These two messages carry no package prefix: LoadSystem passes
	// them to the CLI and the job API as "fragmentation: …".
	if atomsPerMol < 1 {
		return nil, fmt.Errorf("atoms per monomer must be at least 1, got %d", atomsPerMol)
	}
	if molsPerMonomer < 1 {
		return nil, fmt.Errorf("molecules per monomer must be at least 1, got %d", molsPerMonomer)
	}
	if g.N()%atomsPerMol != 0 {
		return nil, fmt.Errorf("fragment: %d atoms not divisible by %d", g.N(), atomsPerMol)
	}
	for _, b := range g.Bonds(bondScale) {
		if b[0]/atomsPerMol != b[1]/atomsPerMol {
			return nil, fmt.Errorf(
				"fragment: atoms %d and %d are covalently bonded but lie in different molecule blocks (%d and %d of %d atoms); ByMolecule requires whole molecules per block — check the builder's atom order or use New with an explicit partition",
				b[0], b[1], b[0]/atomsPerMol, b[1]/atomsPerMol, atomsPerMol)
		}
	}
	nmol := g.N() / atomsPerMol
	var monomers [][]int
	for m := 0; m < nmol; m += molsPerMonomer {
		var atoms []int
		for k := m; k < m+molsPerMonomer && k < nmol; k++ {
			for a := 0; a < atomsPerMol; a++ {
				atoms = append(atoms, k*atomsPerMol+a)
			}
		}
		monomers = append(monomers, atoms)
	}
	return newPartition(g, monomers, opts)
}

// Centroid returns the centroid of monomer mi at the current geometry.
func (f *Fragmentation) Centroid(mi int) [3]float64 {
	return f.Geom.CentroidOf(f.Monomers[mi].Atoms)
}

// centroids computes every monomer centroid at the current geometry in
// one pass — the per-enumeration cache of Terms and Contributions, which
// would otherwise walk both monomers' atoms once per pair (O(nm²)–O(nm³)
// centroid computations per pass). The slice is pass-local, so a
// geometry step can never leave a stale cache behind.
// The arithmetic mirrors Geometry.CentroidOf term for term so both
// paths agree bitwise.
func (f *Fragmentation) centroids() [][3]float64 {
	out := make([][3]float64, len(f.Monomers))
	for mi, m := range f.Monomers {
		if len(m.Atoms) == 0 {
			continue
		}
		var c [3]float64
		for _, a := range m.Atoms {
			p := f.Geom.Atoms[a].Pos
			for k := 0; k < 3; k++ {
				c[k] += p[k]
			}
		}
		inv := 1 / float64(len(m.Atoms))
		for k := 0; k < 3; k++ {
			c[k] *= inv
		}
		out[mi] = c
	}
	return out
}

// centroidSource returns the O(N) cell list over monomer centroids,
// minimum-image aware when the geometry is periodic.
func (f *Fragmentation) centroidSource(cents [][3]float64) neighbor.Source {
	if f.Geom.Cell != nil {
		return neighbor.NewPeriodic(cents, f.Geom.Cell.L)
	}
	return neighbor.New(cents)
}

// Cap describes one hydrogen cap: a hydrogen placed along the cut bond
// a→b at fixed distance from a. Its position depends on both atoms, so
// its force Jacobian spreads onto both.
type Cap struct {
	Inner int // atom kept in the fragment
	Outer int // atom replaced by the cap
}

// Extracted is a polymer's standalone geometry plus the bookkeeping to
// fold its gradient back onto the parent system.
type Extracted struct {
	Geom *molecule.Geometry
	// ParentAtom[i] is the parent-system atom for fragment atom i
	// (the inner/real atoms; caps are appended after them). ParentAtom
	// and Caps are the template's slices, shared by every extraction of
	// the polymer: read-only.
	ParentAtom []int
	Caps       []Cap

	capInner []int        // fragment index of each cap's inner atom (the template's)
	outer    [][3]float64 // outer atom position of each cap, parallel to Caps
}

// Template is the static topology of one polymer's extraction: its
// atoms in fragment order, their member images and its caps. It is
// built once (NewTemplate) and then turns any position source into the
// polymer's geometry (Extract), so the per-task work is a copy of
// positions. A Template is read-only after NewTemplate and safe to
// share between goroutines.
type Template struct {
	parent   []int      // sorted parent atoms
	z        []int      // atomic number of each parent atom
	shifts   []imageRun // runs of fragment atoms with a nonzero member image
	caps     []Cap      // cut bonds leaving the polymer, in f.cutBonds order
	capInner []int      // fragment index of each cap's inner atom
	cell     *molecule.Cell
}

// imageRun is a run of consecutive fragment atoms [lo, hi) of one
// member, rigidly shifted by that member's image.
type imageRun struct {
	lo, hi int
	shift  [3]float64
}

// NewTemplate builds the extraction template of p with the given member
// images (MemberImages; nil shifts nothing). The engine builds one per
// polymer when it forms its polymer list, with the images of the set-up
// geometry, so that a fragment's geometry is continuous along the
// trajectory: picked afresh at every step, a member flips by a lattice
// vector whenever its centroid crosses half a box from the first
// member's — which monomers whose atoms drift apart do.
func (f *Fragmentation) NewTemplate(p Polymer, images [][3]float64) *Template {
	t := f.template(p, images)
	return &t
}

// template is NewTemplate by value: inlined, NewTemplate lets a one-off
// extraction (ExtractAt) keep its template off the heap.
func (f *Fragmentation) template(p Polymer, images [][3]float64) Template {
	n := 0
	for _, mi := range p.Monomers {
		n += len(f.Monomers[mi].Atoms)
	}
	buf := make([]int, 2*n)
	t := Template{parent: buf[:0:n], z: buf[n:], cell: f.Geom.Cell}
	for _, mi := range p.Monomers {
		t.parent = append(t.parent, f.Monomers[mi].Atoms...)
	}
	sort.Ints(t.parent)
	for i, a := range t.parent {
		t.z[i] = f.Geom.Atoms[a].Z
	}
	member := func(a int) int { // index in p.Monomers of a's monomer, or -1
		return slices.Index(p.Monomers, f.atomMonomer[a])
	}
	for lo := 0; images != nil && lo < n; {
		hi := lo + 1
		for hi < n && f.atomMonomer[t.parent[hi]] == f.atomMonomer[t.parent[lo]] {
			hi++
		}
		// A zero image is skipped, not added, so positions stay
		// bit-identical (a −0.0 coordinate keeps its sign).
		if k := member(t.parent[lo]); k > 0 && images[k-1] != ([3]float64{}) {
			t.shifts = append(t.shifts, imageRun{lo: lo, hi: hi, shift: images[k-1]})
		}
		lo = hi
	}
	for _, b := range f.cutBonds {
		var inner, outer int
		switch in0, in1 := member(b[0]) >= 0, member(b[1]) >= 0; {
		case in0 && !in1:
			inner, outer = b[0], b[1]
		case in1 && !in0:
			inner, outer = b[1], b[0]
		default:
			continue // bond fully inside or fully outside
		}
		t.caps = append(t.caps, Cap{Inner: inner, Outer: outer})
		t.capInner = append(t.capInner, sort.SearchInts(t.parent, inner))
	}
	return t
}

// Extract builds the polymer's standalone geometry at pos: the member
// atoms, each member rigidly shifted by its image, then one hydrogen
// cap per cut bond, placed towards the outer atom's nearest image to
// its (shifted) inner atom. Rigid lattice shifts leave all
// intra-fragment displacements — and therefore the fragment energy and
// gradient — unchanged, so FoldGradient needs no correction.
func (t *Template) Extract(pos func(atom int) [3]float64) *Extracted {
	n := len(t.parent)
	atoms := make([]molecule.Atom, n+len(t.caps))
	for i, a := range t.parent {
		atoms[i] = molecule.Atom{Z: t.z[i], Pos: pos(a)}
	}
	for _, r := range t.shifts {
		for i := r.lo; i < r.hi; i++ {
			xyz := &atoms[i].Pos
			xyz[0] += r.shift[0]
			xyz[1] += r.shift[1]
			xyz[2] += r.shift[2]
		}
	}
	// The Extracted and its Geometry share one allocation.
	x := &struct {
		ex Extracted
		g  molecule.Geometry
	}{g: molecule.Geometry{Atoms: atoms}}
	ex := &x.ex
	*ex = Extracted{Geom: &x.g, ParentAtom: t.parent, Caps: t.caps, capInner: t.capInner}
	if len(t.caps) > 0 {
		ex.outer = make([][3]float64, len(t.caps))
	}
	for ci, c := range t.caps {
		in := atoms[t.capInner[ci]].Pos
		out := nearestImage(t.cell, pos(c.Outer), in)
		ex.outer[ci] = out
		atoms[n+ci] = molecule.Atom{Z: 1, Pos: capPosition(in, out, capDistance)}
	}
	return ex
}

// Extract builds the standalone geometry of a polymer: the union of its
// monomers' atoms plus hydrogen caps for every bond cut by the polymer
// boundary. Positions are taken from the parent geometry.
func (f *Fragmentation) Extract(p Polymer) *Extracted {
	return f.ExtractAt(p, func(a int) [3]float64 { return f.Geom.Atoms[a].Pos })
}

// TouchSet returns the monomers whose positions a polymer evaluation
// depends on: its own members plus the monomers owning the outer atoms
// of cut bonds (whose positions define the H-caps). This is the
// dependency set of the asynchronous time-step scheme (§V-F).
func (f *Fragmentation) TouchSet(p Polymer) []int {
	out := append([]int(nil), p.Monomers...)
	for _, c := range f.template(p, nil).caps {
		if om := f.atomMonomer[c.Outer]; !slices.Contains(out, om) {
			out = append(out, om)
		}
	}
	sort.Ints(out)
	return out
}

// ExtractAt is Extract with an explicit position source: one extraction
// through a template built for it. Callers that extract one polymer
// repeatedly (the scheduler) keep its Template instead.
//
// Periodic geometries extract by nearest image: every member monomer is
// rigidly shifted by the lattice vector bringing its centroid closest
// to the first member's centroid (MemberImages at pos), so a dimer
// straddling the box boundary becomes the compact physical pair, not
// two distant copies. Cut-bond outer atoms are likewise min-imaged
// relative to their inner atom before the cap is placed. With a nil
// Cell the position source passes through untouched.
func (f *Fragmentation) ExtractAt(p Polymer, pos func(atom int) [3]float64) *Extracted {
	return f.NewTemplate(p, f.MemberImages(p, pos)).Extract(pos)
}

// MemberImages returns the lattice vectors ExtractAt shifts the members
// of p by at pos: images[k] brings member k+1's centroid to the nearest
// image of the first member's. It returns nil when the geometry is open
// or no member needs a shift.
func (f *Fragmentation) MemberImages(p Polymer, pos func(atom int) [3]float64) [][3]float64 {
	if f.Geom.Cell == nil {
		return nil
	}
	var images [][3]float64
	ref := f.monomerCentroidAt(p.Monomers[0], pos)
	for k, mi := range p.Monomers[1:] {
		c := f.monomerCentroidAt(mi, pos)
		d := [3]float64{c[0] - ref[0], c[1] - ref[1], c[2] - ref[2]}
		md := f.Geom.Cell.MinImage(d)
		sh := [3]float64{md[0] - d[0], md[1] - d[1], md[2] - d[2]}
		if sh == ([3]float64{}) {
			continue
		}
		if images == nil {
			images = make([][3]float64, len(p.Monomers)-1)
		}
		images[k] = sh
	}
	return images
}

// monomerCentroidAt computes one monomer's centroid from a position
// source, mirroring Geometry.CentroidOf arithmetic.
func (f *Fragmentation) monomerCentroidAt(mi int, pos func(atom int) [3]float64) [3]float64 {
	var c [3]float64
	atoms := f.Monomers[mi].Atoms
	if len(atoms) == 0 {
		return c
	}
	for _, a := range atoms {
		p := pos(a)
		for k := 0; k < 3; k++ {
			c[k] += p[k]
		}
	}
	inv := 1 / float64(len(atoms))
	for k := 0; k < 3; k++ {
		c[k] *= inv
	}
	return c
}

// nearestImage returns the periodic image of q in cell closest to ref
// (q itself when cell is nil, the open geometry).
func nearestImage(cell *molecule.Cell, q, ref [3]float64) [3]float64 {
	if cell == nil {
		return q
	}
	d := cell.MinImage([3]float64{q[0] - ref[0], q[1] - ref[1], q[2] - ref[2]})
	return [3]float64{ref[0] + d[0], ref[1] + d[1], ref[2] + d[2]}
}

// AtomMonomer returns the monomer index owning each atom.
func (f *Fragmentation) AtomMonomer() []int {
	return append([]int(nil), f.atomMonomer...)
}

// capPosition places the hydrogen at distance d from inner along the
// inner→outer direction.
func capPosition(inner, outer [3]float64, d float64) [3]float64 {
	var u [3]float64
	var norm float64
	for k := 0; k < 3; k++ {
		u[k] = outer[k] - inner[k]
		norm += u[k] * u[k]
	}
	norm = math.Sqrt(norm)
	var out [3]float64
	for k := 0; k < 3; k++ {
		out[k] = inner[k] + d*u[k]/norm
	}
	return out
}

// FoldGradient maps a fragment gradient (3 × fragment atoms) back onto
// the parent system with factor, applying the exact H-cap chain rule:
// the cap position C(x_in, x_out) = x_in + d·u/|u| contributes
// ∂C/∂x_in and ∂C/∂x_out terms to both bond atoms.
func (ex *Extracted) FoldGradient(fragGrad []float64, factor float64, parentGrad []float64) {
	nReal := len(ex.ParentAtom)
	for i, pa := range ex.ParentAtom {
		for k := 0; k < 3; k++ {
			parentGrad[3*pa+k] += factor * fragGrad[3*i+k]
		}
	}
	for ci, cap := range ex.Caps {
		gi := 3 * (nReal + ci)
		inner := ex.Geom.Atoms[ex.capInner[ci]].Pos
		outer := ex.outer[ci]
		var u [3]float64
		var norm float64
		for k := 0; k < 3; k++ {
			u[k] = outer[k] - inner[k]
			norm += u[k] * u[k]
		}
		norm = math.Sqrt(norm)
		d := capDistance
		// ∂C_k/∂out_l = d/|u| (δ_kl − û_k û_l); ∂C_k/∂in_l = δ_kl − ∂C_k/∂out_l.
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

func delta(a, b int) float64 {
	if a == b {
		return 1
	}
	return 0
}
