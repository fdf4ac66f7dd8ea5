package molecule

import (
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/chem"
)

// Cell is an orthorhombic periodic box. A Geometry with a non-nil Cell
// is periodic: distances and displacements use the minimum-image
// convention, and neighbor enumeration wraps across the boundaries.
//
// Conventions (DESIGN.md §13):
//
//   - Atom positions are stored UNWRAPPED. Integrators and Translate
//     move raw coordinates; nothing ever folds an atom back into
//     [0, L). This keeps trajectories continuous (no position jumps at
//     boundary crossings) and keeps the open-boundary code paths
//     bitwise-unchanged when Cell is nil.
//   - Centroid and CentroidOf average the raw (unwrapped) coordinates.
//     For molecule-sized subsets this is the physically meaningful
//     centre as long as each molecule's atoms stay image-coherent,
//     which unwrapped storage guarantees.
//   - Dist, Displacement, bonded-pair detection, nuclear repulsion and
//     its gradient all apply the minimum image, so every energy and
//     force is a smooth function of the raw coordinates.
type Cell struct {
	// L holds the box edge lengths in Bohr; all three must be positive.
	L [3]float64
}

// NewCell returns an orthorhombic cell with edge lengths in Bohr.
func NewCell(lx, ly, lz float64) (*Cell, error) {
	c := &Cell{L: [3]float64{lx, ly, lz}}
	for k := 0; k < 3; k++ {
		if !(c.L[k] > 0) || math.IsInf(c.L[k], 0) {
			return nil, fmt.Errorf("molecule: cell edge %d must be positive and finite, got %g", k, c.L[k])
		}
	}
	return c, nil
}

// NewCellAngstrom returns an orthorhombic cell with edge lengths in Å.
func NewCellAngstrom(lx, ly, lz float64) (*Cell, error) {
	const f = chem.BohrPerAngstrom
	return NewCell(lx*f, ly*f, lz*f)
}

// Clone returns a copy of the cell (nil-safe).
func (c *Cell) Clone() *Cell {
	if c == nil {
		return nil
	}
	d := *c
	return &d
}

// MinImage folds a displacement vector into the primary image, each
// component into (−L/2, L/2]. Nil-safe: a nil cell returns d unchanged.
func (c *Cell) MinImage(d [3]float64) [3]float64 {
	if c == nil {
		return d
	}
	for k := 0; k < 3; k++ {
		d[k] -= c.L[k] * math.Round(d[k]/c.L[k])
	}
	return d
}

// Wrap folds a position into the primary cell [0, L). Atom storage
// never calls this (positions stay unwrapped); it exists for analysis
// and visualisation.
func (c *Cell) Wrap(p [3]float64) [3]float64 {
	if c == nil {
		return p
	}
	for k := 0; k < 3; k++ {
		p[k] -= c.L[k] * math.Floor(p[k]/c.L[k])
	}
	return p
}

// Displacement returns the minimum-image displacement from atom j to
// atom i (Pos[i] − Pos[j], folded when the geometry is periodic).
func (g *Geometry) Displacement(i, j int) [3]float64 {
	d := [3]float64{
		g.Atoms[i].Pos[0] - g.Atoms[j].Pos[0],
		g.Atoms[i].Pos[1] - g.Atoms[j].Pos[1],
		g.Atoms[i].Pos[2] - g.Atoms[j].Pos[2],
	}
	return g.Cell.MinImage(d)
}

// DistBetween returns the distance between two points under the
// geometry's boundary conditions (minimum image when periodic).
func (g *Geometry) DistBetween(a, b [3]float64) float64 {
	d := g.Cell.MinImage([3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]})
	return math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
}
