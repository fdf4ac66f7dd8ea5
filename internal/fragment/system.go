package fragment

import (
	"errors"
	"fmt"
	"io"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
)

// ErrBox marks a LoadSystem failure caused by the requested box, so
// callers can tell a bad box from a bad geometry.
var ErrBox = errors.New("box")

// LoadSystem is the system loader behind fragmd, fragmd coordinate and
// the serve job spec: it parses an XYZ cluster and fragments it
// molecule-by-molecule (the geometry is the result's Geom), in the units
// of the CLI flags and the job JSON. boxA requests periodic boundaries —
// one edge length (cubic) or three, Å — overriding any cell= comment in
// the XYZ; empty keeps the XYZ's cell, or open boundaries if it has
// none. dimerCutA and trimerCutA are centroid cutoffs in Å (0 = none;
// negative or NaN is an error).
func LoadSystem(xyz io.Reader, boxA []float64, atomsPerMonomer int, dimerCutA, trimerCutA float64) (*Fragmentation, error) {
	g, err := molecule.ParseXYZ(xyz)
	if err != nil {
		return nil, fmt.Errorf("xyz: %w", err)
	}
	switch len(boxA) {
	case 0:
	case 1:
		g.Cell, err = molecule.NewCellAngstrom(boxA[0], boxA[0], boxA[0])
	case 3:
		g.Cell, err = molecule.NewCellAngstrom(boxA[0], boxA[1], boxA[2])
	default:
		err = fmt.Errorf("want 1 or 3 edge lengths, got %d", len(boxA))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBox, err)
	}
	if !(dimerCutA >= 0) || !(trimerCutA >= 0) {
		return nil, fmt.Errorf("cutoffs must be ≥ 0 Å (0 = none), got dimer %g, trimer %g", dimerCutA, trimerCutA)
	}
	f, err := ByMolecule(g, atomsPerMonomer, 1, Options{
		DimerCutoff:  dimerCutA * chem.BohrPerAngstrom,
		TrimerCutoff: trimerCutA * chem.BohrPerAngstrom,
	})
	if err != nil {
		return nil, fmt.Errorf("fragmentation: %w", err)
	}
	return f, nil
}
