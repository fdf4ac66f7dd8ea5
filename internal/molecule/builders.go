package molecule

import (
	"math"
	"math/rand"
)

// Standard template geometries, in Ångström, for the paper's benchmark
// molecules. They are chemically sensible idealised structures (standard
// bond lengths and angles), not crystallographic coordinates: the paper's
// workloads depend on fragment sizes, electron counts and packing
// distances, all of which these templates match (see DESIGN.md §2).

// Water returns a single water molecule (gas-phase geometry: r(OH) =
// 0.9572 Å, ∠HOH = 104.52°), oxygen at the origin.
func Water() *Geometry {
	g := New()
	g.Comment = "water"
	const r = 0.9572
	half := 104.52 / 2 * math.Pi / 180
	g.AddAtomAngstrom(8, 0, 0, 0)
	g.AddAtomAngstrom(1, r*math.Sin(half), r*math.Cos(half), 0)
	g.AddAtomAngstrom(1, -r*math.Sin(half), r*math.Cos(half), 0)
	return g
}

// WaterDimer returns a hydrogen-bonded water dimer with the given O–O
// separation in Ångström (2.98 Å is near the equilibrium).
func WaterDimer(roo float64) *Geometry {
	g := Water()
	g.Comment = "water dimer"
	w2 := Water()
	w2.RotateZ(math.Pi)
	w2.Translate(roo/0.529177210903, 0, 0)
	g.Append(w2)
	return g
}

// WaterCluster returns n water molecules on a cubic grid with ~3.1 Å
// nearest-neighbour O–O spacing, orientations alternating to avoid
// clashes. Used for MBE accuracy and scaling tests.
func WaterCluster(n int) *Geometry {
	g := New()
	g.Comment = "water cluster"
	side := int(math.Ceil(math.Cbrt(float64(n))))
	const spacing = 3.1 // Å
	count := 0
	for i := 0; i < side && count < n; i++ {
		for j := 0; j < side && count < n; j++ {
			for k := 0; k < side && count < n; k++ {
				w := Water()
				w.RotateZ(float64((i+2*j+3*k)%4) * math.Pi / 2)
				w.Translate(float64(i)*spacing/0.529177210903,
					float64(j)*spacing/0.529177210903,
					float64(k)*spacing/0.529177210903)
				g.Append(w)
				count++
			}
		}
	}
	return g
}

// WaterBoxSpacing is the WaterBox lattice constant in Å, chosen so the
// box reproduces liquid-water density (≈29.9 Å³ per molecule at
// 0.997 g/cm³).
const WaterBoxSpacing = 3.105

// WaterBox returns nx×ny×nz water molecules (TIP3P gas-phase monomer
// geometry) on a cubic lattice at liquid density inside a periodic
// orthorhombic cell of (nx, ny, nz) × WaterBoxSpacing Å. Each molecule
// gets a deterministic jittered position (±0.15 Å) and random
// orientation from the seed, so two boxes with the same arguments are
// bitwise identical. Atoms are emitted molecule-by-molecule (O, H, H),
// ready for ByMolecule fragmentation with 3 atoms per monomer.
func WaterBox(nx, ny, nz int, seed int64) *Geometry {
	g := New()
	g.Comment = "periodic water box"
	rng := rand.New(rand.NewSource(seed))
	if nx < 1 || ny < 1 || nz < 1 {
		panic("molecule: WaterBox dimensions must be at least 1")
	}
	const s = WaterBoxSpacing
	cell, err := NewCellAngstrom(float64(nx)*s, float64(ny)*s, float64(nz)*s)
	if err != nil {
		panic(err) // unreachable: dimensions validated above
	}
	g.Cell = cell
	const f = 1 / 0.529177210903 // Bohr per Å
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				w := Water()
				w.RotateZ(rng.Float64() * 2 * math.Pi)
				jx := (rng.Float64() - 0.5) * 0.30
				jy := (rng.Float64() - 0.5) * 0.30
				jz := (rng.Float64() - 0.5) * 0.30
				w.Translate(((float64(i)+0.5)*s+jx)*f,
					((float64(j)+0.5)*s+jy)*f,
					((float64(k)+0.5)*s+jz)*f)
				g.Append(w)
			}
		}
	}
	return g
}

// SolvatedSolute returns the core molecule centred at the origin inside
// an open-boundary water droplet of the given radius (Å): lattice
// waters within the shell radius are kept unless they clash with the
// core (any atom closer than 2.4 Å). The second return value lists the
// monomers for fragment.New — the whole core first, then each water —
// since the mixed atom counts rule out ByMolecule's regular blocks.
func SolvatedSolute(core *Geometry, shellRadius float64) (*Geometry, [][]int) {
	g := New()
	g.Comment = "solvated " + core.Comment
	c := core.Clone()
	c.Cell = nil
	cen := c.Centroid()
	c.Translate(-cen[0], -cen[1], -cen[2])
	g.Append(c)
	coreMono := make([]int, c.N())
	for i := range coreMono {
		coreMono[i] = i
	}
	monomers := [][]int{coreMono}

	const s = WaterBoxSpacing
	const clash = 2.4 // Å, min water-O to core-atom distance
	rb := shellRadius / 0.529177210903
	cb := clash / 0.529177210903
	sb := s / 0.529177210903
	nmax := int(shellRadius/s) + 1
	for i := -nmax; i <= nmax; i++ {
		for j := -nmax; j <= nmax; j++ {
			for k := -nmax; k <= nmax; k++ {
				x := (float64(i) + 0.5) * sb
				y := (float64(j) + 0.5) * sb
				z := (float64(k) + 0.5) * sb
				if math.Sqrt(x*x+y*y+z*z) > rb {
					continue
				}
				tooClose := false
				for _, a := range c.Atoms {
					if Dist(a.Pos, [3]float64{x, y, z}) < cb {
						tooClose = true
						break
					}
				}
				if tooClose {
					continue
				}
				w := Water()
				w.RotateZ(float64((i+2*j+3*k)%4) * math.Pi / 2)
				w.Translate(x, y, z)
				first := g.Append(w)
				monomers = append(monomers, []int{first, first + 1, first + 2})
			}
		}
	}
	return g, monomers
}

// UreaSupercell returns an na×nb×nc supercell of the idealised
// tetragonal urea lattice (a = b = 5.565 Å, c = 4.684 Å, two molecules
// per cell with alternating orientation) under periodic boundary
// conditions — the infinite-crystal counterpart of UreaCrystalSphere.
// Atoms are emitted molecule-by-molecule (8 atoms each) for ByMolecule.
func UreaSupercell(na, nb, nc int) *Geometry {
	const a, c = 5.565, 4.684
	g := New()
	g.Comment = "urea supercell"
	cell, err := NewCellAngstrom(float64(na)*a, float64(nb)*a, float64(nc)*c)
	if err != nil {
		panic("molecule: UreaSupercell dimensions must be at least 1")
	}
	g.Cell = cell
	template := Urea()
	const f = 1 / 0.529177210903
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			for k := 0; k < nc; k++ {
				for half := 0; half < 2; half++ {
					x := float64(i) * a
					y := float64(j) * a
					z := float64(k) * c
					if half == 1 {
						x += a / 2
						y += a / 2
						z += c / 2
					}
					m := template.Clone()
					if half == 1 {
						m.RotateZ(math.Pi / 2)
					}
					// Offset so molecules sit inside the cell interior.
					m.Translate((x+a/4)*f, (y+a/4)*f, (z+c/4)*f)
					g.Append(m)
				}
			}
		}
	}
	return g
}

// Urea returns one urea molecule, CH₄N₂O (8 atoms, 32 electrons),
// planar idealised geometry, carbon at the origin.
func Urea() *Geometry {
	g := New()
	g.Comment = "urea"
	g.AddAtomAngstrom(6, 0, 0, 0)          // C
	g.AddAtomAngstrom(8, 0, 1.225, 0)      // O (C=O 1.225)
	g.AddAtomAngstrom(7, 1.156, -0.684, 0) // N1 (C–N 1.344)
	g.AddAtomAngstrom(7, -1.156, -0.684, 0)
	g.AddAtomAngstrom(1, 2.052, -0.245, 0) // H on N1
	g.AddAtomAngstrom(1, 1.170, -1.685, 0)
	g.AddAtomAngstrom(1, -2.052, -0.245, 0) // H on N2
	g.AddAtomAngstrom(1, -1.170, -1.685, 0)
	return g
}

// UreaCrystalSphere returns a spherical section of an idealised
// tetragonal urea lattice (a = 5.565 Å, c = 4.684 Å, two molecules per
// cell with alternating orientation), keeping molecules whose centroid
// lies within radius Å of the origin. This mirrors the paper's
// "increasing-radii spherical sections of crystal lattices" (§VI-B).
func UreaCrystalSphere(radius float64) *Geometry {
	return crystalSphere(Urea(), 5.565, 5.565, 4.684, radius)
}

// Paracetamol returns one paracetamol molecule, C₈H₉NO₂ (20 atoms,
// 80 electrons): benzene ring, para hydroxyl, acetamide arm.
func Paracetamol() *Geometry {
	g := New()
	g.Comment = "paracetamol"
	const rc = 1.397 // aromatic C–C
	// Ring carbons in the xy-plane.
	var ring [6][2]float64
	for i := 0; i < 6; i++ {
		th := float64(i) * math.Pi / 3
		ring[i] = [2]float64{rc * math.Cos(th), rc * math.Sin(th)}
		g.AddAtomAngstrom(6, ring[i][0], ring[i][1], 0)
	}
	// Ring hydrogens on positions 1,2,4,5 (0 carries N, 3 carries OH).
	for _, i := range []int{1, 2, 4, 5} {
		th := float64(i) * math.Pi / 3
		g.AddAtomAngstrom(1, (rc+1.08)*math.Cos(th), (rc+1.08)*math.Sin(th), 0)
	}
	// Para hydroxyl on ring position 3.
	ox := (rc + 1.36) * math.Cos(math.Pi)
	g.AddAtomAngstrom(8, ox, 0, 0)
	g.AddAtomAngstrom(1, ox-0.30, 0.90, 0)
	// Acetamide arm on ring position 0: N–H, C=O, CH3.
	nx := rc + 1.40
	g.AddAtomAngstrom(7, nx, 0, 0)
	g.AddAtomAngstrom(1, nx+0.06, -1.00, 0)
	ccx, ccy := nx+1.20, 0.75
	g.AddAtomAngstrom(6, ccx, ccy, 0) // carbonyl C
	g.AddAtomAngstrom(8, ccx-0.20, 1.95, 0)
	cmx, cmy := ccx+1.45, 0.45
	g.AddAtomAngstrom(6, cmx, cmy, 0) // methyl C
	g.AddAtomAngstrom(1, cmx+0.55, 1.25, 0.60)
	g.AddAtomAngstrom(1, cmx+0.55, -0.40, -0.35)
	g.AddAtomAngstrom(1, cmx-0.35, 0.35, -0.95)
	return g
}

// ParacetamolSphere returns a spherical section of an idealised
// paracetamol lattice (7.1 Å cubic spacing). The paper's strong-scaling
// workload is an 80-molecule, 36 Å-diameter dense sphere (§VII-B).
func ParacetamolSphere(radius float64) *Geometry {
	return crystalSphere(Paracetamol(), 7.1, 7.1, 7.1, radius)
}

// crystalSphere tiles template on a lattice with two alternately rotated
// molecules per cell and cuts a sphere of the given radius (Å).
func crystalSphere(template *Geometry, a, b, c, radius float64) *Geometry {
	g := New()
	g.Comment = template.Comment + " crystal sphere"
	rb := radius / 0.529177210903
	ab := a / 0.529177210903
	bb := b / 0.529177210903
	cb := c / 0.529177210903
	nmax := int(radius/math.Min(a, c)) + 2
	for i := -nmax; i <= nmax; i++ {
		for j := -nmax; j <= nmax; j++ {
			for k := -nmax; k <= nmax; k++ {
				for half := 0; half < 2; half++ {
					x := float64(i) * ab
					y := float64(j) * bb
					z := float64(k) * cb
					if half == 1 {
						x += ab / 2
						y += bb / 2
						z += cb / 2
					}
					if math.Sqrt(x*x+y*y+z*z) > rb {
						continue
					}
					m := template.Clone()
					if half == 1 {
						m.RotateZ(math.Pi / 2)
					}
					m.Translate(x, y, z)
					g.Append(m)
				}
			}
		}
	}
	return g
}

// glycine backbone template in Ångström; the repeat vector is
// (3.63, 0, 0) and the amide C′(i)–N(i+1) distance is 1.33 Å.
var glyTemplate = []struct {
	z        int
	x, y, zz float64
}{
	{7, 0.000, 0.000, 0.000},   // N
	{1, -0.100, -0.995, 0.000}, // H on N
	{6, 1.458, 0.000, 0.000},   // Cα
	{1, 1.778, -0.450, 0.890},  // Hα1
	{1, 1.778, -0.450, -0.890}, // Hα2
	{6, 2.668, 0.920, 0.000},   // C′
	{8, 2.315, 2.098, 0.000},   // O
}

// GlyResidueAtoms is the number of atoms in one glycine residue
// (N, H, Cα, 2Hα, C′, O).
const GlyResidueAtoms = 7

// Polyglycine returns an extended-conformation polyglycine chain Gly_n
// with an extra N-terminal hydrogen and a C-terminal hydroxyl
// (7n + 3 atoms). These are the Table III latency benchmark systems.
// The second return value gives, for each residue, the indices of its
// atoms (terminal caps are attached to the first and last residues),
// which is the paper's "monomers composed of individual amino acids"
// fragmentation.
func Polyglycine(n int) (*Geometry, [][]int) {
	g := New()
	g.Comment = "polyglycine"
	residues := make([][]int, n)
	const repeat = 3.63
	for r := 0; r < n; r++ {
		x0 := float64(r) * repeat
		for _, t := range glyTemplate {
			idx := g.AddAtomAngstrom(t.z, t.x+x0, t.y, t.zz)
			residues[r] = append(residues[r], idx)
		}
	}
	// N-terminal second hydrogen.
	idx := g.AddAtomAngstrom(1, -0.820, 0.570, 0)
	residues[0] = append(residues[0], idx)
	// C-terminal hydroxyl on the last C′.
	lastX := float64(n-1) * repeat
	o2 := g.AddAtomAngstrom(8, lastX+3.678, 0.060, 0)
	h2 := g.AddAtomAngstrom(1, lastX+4.280, 0.800, 0)
	residues[n-1] = append(residues[n-1], o2, h2)
	return g, residues
}

// BetaFibril builds a synthetic β-strand fibril: strands parallel
// polyglycine chains of residuesPerStrand residues each, stacked with
// 4.8 Å inter-strand spacing (the β-sheet hydrogen-bond register).
// It stands in for the PDB structures the paper simulates — 6PQ5
// (36 monomers, 7–14 atoms each) ≈ BetaFibril(6, 6) and the 4-strand
// 2BEG variant (1,496 atoms) ≈ BetaFibril(4, 53). The residue lists are
// the AIMD monomers.
func BetaFibril(strands, residuesPerStrand int) (*Geometry, [][]int) {
	g := New()
	g.Comment = "synthetic beta fibril"
	var monomers [][]int
	for s := 0; s < strands; s++ {
		chain, res := Polyglycine(residuesPerStrand)
		// Alternate strand direction (antiparallel sheet) and offset.
		if s%2 == 1 {
			chain.RotateZ(math.Pi)
			chain.Translate(float64(residuesPerStrand)*3.63/0.529177210903, 0, 0)
		}
		chain.Translate(0, 0, float64(s)*4.8/0.529177210903)
		off := g.Append(chain)
		for _, r := range res {
			m := make([]int, len(r))
			for i, a := range r {
				m[i] = a + off
			}
			monomers = append(monomers, m)
		}
	}
	return g, monomers
}
