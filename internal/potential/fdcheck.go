package potential

import (
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Evaluator and fdEmbedded mirror fragment.Evaluator and
// fragment.EmbeddedEvaluator structurally (Go interfaces match by
// shape), so this package stays importable from package fragment's own
// tests without an import cycle. Evaluator is what Spec.Build returns;
// it is assignable wherever a fragment.Evaluator is wanted.
type Evaluator interface {
	Evaluate(g *molecule.Geometry) (float64, []float64, error)
}

type fdEmbedded interface {
	EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (float64, []float64, []float64, *warmstart.State, error)
}

// FDForces validates an evaluator's analytic forces against central
// finite differences of its energy — the reusable physics check behind
// the EE-MBE test suite (usable from any package's tests):
//
//	maxAtom = max_i |∂E/∂R_i − [E(R_i+h) − E(R_i−h)]/2h|
//	maxSite = the same over embedding-site displacements
//
// With a nil field the plain Evaluate path is differentiated (maxSite
// is 0); otherwise eval must implement fragment.EmbeddedEvaluator and
// the charges are held fixed while atoms and sites move — the EE-MBE
// frozen-charge gradient convention. atomIdx/siteIdx select the flat
// coordinate components to test (nil = all), so expensive ab initio
// evaluators can probe a representative subset and stay
// -short-compatible.
func FDForces(eval Evaluator, g *molecule.Geometry, field *integrals.PointCharges,
	h float64, atomIdx, siteIdx []int) (maxAtom, maxSite float64, err error) {
	if h <= 0 {
		return 0, 0, fmt.Errorf("potential: FD step %g must be positive", h)
	}
	ee, embedded := eval.(fdEmbedded)
	if field.N() > 0 && !embedded {
		return 0, 0, fmt.Errorf("potential: evaluator %T cannot evaluate embedded fragments", eval)
	}
	energy := func(gg *molecule.Geometry, fld *integrals.PointCharges) (float64, error) {
		if fld.N() > 0 {
			e, _, _, _, err := ee.EvaluateEmbedded(gg, fld, nil)
			return e, err
		}
		e, _, err := eval.Evaluate(gg)
		return e, err
	}

	var grad, fieldGrad []float64
	if field.N() > 0 {
		_, grad, fieldGrad, _, err = ee.EvaluateEmbedded(g, field, nil)
	} else {
		_, grad, err = eval.Evaluate(g)
	}
	if err != nil {
		return 0, 0, err
	}
	if grad == nil {
		return 0, 0, fmt.Errorf("potential: evaluator %T returned no gradient", eval)
	}

	if atomIdx == nil {
		for i := 0; i < 3*g.N(); i++ {
			atomIdx = append(atomIdx, i)
		}
	}
	for _, idx := range atomIdx {
		gp, gm := g.Clone(), g.Clone()
		gp.Atoms[idx/3].Pos[idx%3] += h
		gm.Atoms[idx/3].Pos[idx%3] -= h
		ep, err := energy(gp, field)
		if err != nil {
			return 0, 0, err
		}
		em, err := energy(gm, field)
		if err != nil {
			return 0, 0, err
		}
		if d := math.Abs((ep-em)/(2*h) - grad[idx]); d > maxAtom {
			maxAtom = d
		}
	}

	if field.N() == 0 {
		return maxAtom, 0, nil
	}
	if len(fieldGrad) != 3*field.N() {
		return 0, 0, fmt.Errorf("potential: evaluator %T returned %d site-gradient components for %d sites",
			eval, len(fieldGrad), field.N())
	}
	if siteIdx == nil {
		for i := 0; i < 3*field.N(); i++ {
			siteIdx = append(siteIdx, i)
		}
	}
	for _, idx := range siteIdx {
		pp, pm := field.Clone(), field.Clone()
		pp.Pos[idx] += h
		pm.Pos[idx] -= h
		ep, err := energy(g, pp)
		if err != nil {
			return 0, 0, err
		}
		em, err := energy(g, pm)
		if err != nil {
			return 0, 0, err
		}
		if d := math.Abs((ep-em)/(2*h) - fieldGrad[idx]); d > maxSite {
			maxSite = d
		}
	}
	return maxAtom, maxSite, nil
}
