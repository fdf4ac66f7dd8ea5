// Package potential provides fragment.Evaluator implementations: the
// paper's RI-HF + RI-MP2 potential, a plain RI-HF/conventional-HF
// potential, and a cheap Lennard-Jones surrogate used to stress-test the
// MD and scheduling machinery at scales where the ab initio evaluators
// would be too slow on a development box.
package potential

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/mp2"
	"github.com/fragmd/fragmd/internal/scf"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// stateFromSCF snapshots a converged SCF result as a warm-start state.
func stateFromSCF(g *molecule.Geometry, ref *scf.Result, basisName string) *warmstart.State {
	st := &warmstart.State{
		D:     ref.D,
		C:     ref.C,
		Basis: basisName,
		NBf:   ref.Bs.N,
		NOcc:  ref.NOcc,

		SCFIters: ref.Iters,
	}
	if ref.Aux != nil {
		st.NAux = ref.Aux.N
	}
	st.Snapshot(g)
	return st
}

// applyGuess injects prev's converged density and MO coefficients into
// the SCF options when prev is a valid guess for this geometry and
// basis (same atoms, same basis name, matching basis dimension and
// occupation); otherwise it leaves the cold core-Hamiltonian guess in
// place.
func applyGuess(opts *scf.Options, prev *warmstart.State, g *molecule.Geometry, basisName string, nbf int) {
	if prev == nil || prev.D == nil || prev.Basis != basisName || prev.NBf != nbf ||
		2*prev.NOcc != g.NumElectrons() || !prev.Compatible(g) {
		return
	}
	opts.GuessDensity = prev.D
	opts.GuessC = prev.C
}

// RIMP2 evaluates RI-HF + RI-MP2 energies and fully analytic gradients —
// the paper's production potential.
type RIMP2 struct {
	Basis   string // "sto-3g" or "dzp"
	AuxOpts basis.AuxOptions
	SCS     bool
	SCFOpts scf.Options
	MP2Opts mp2.Options
	// EnergyOnly skips the analytic gradient (returned gradient is nil);
	// used by energy-decomposition analyses such as the Fig. 5 cutoff
	// scan where forces are not needed.
	EnergyOnly bool
}

// Evaluate implements fragment.Evaluator.
func (p *RIMP2) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	e, grad, _, err := p.EvaluateFrom(g, nil)
	return e, grad, err
}

// EvaluateFrom implements fragment.StatefulEvaluator: prev's converged
// density (when compatible) becomes the SCF initial guess, and the new
// converged state is returned for the next step.
func (p *RIMP2) EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (float64, []float64, *warmstart.State, error) {
	e, grad, _, st, err := p.EvaluateEmbedded(g, nil, prev)
	return e, grad, st, err
}

// EvaluateEmbedded implements fragment.EmbeddedEvaluator: the RI-HF
// reference is converged in the point-charge field (which then flows
// through the MP2 amplitudes and the relaxed-density gradient), and
// the analytic forces on the field sites ride along. A nil field
// reproduces the vacuum evaluation exactly.
func (p *RIMP2) EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (float64, []float64, []float64, *warmstart.State, error) {
	ref, name, err := p.hf().run(g, field, prev)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	mopts := p.MP2Opts
	mopts.SCS = p.SCS
	r, err := mp2.RIMP2(ref, mopts)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	st := stateFromSCF(g, ref, name)
	if p.EnergyOnly {
		return r.ETotal, nil, nil, st, nil
	}
	grad, fieldGrad, err := r.Gradients()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	// Note: the analytic gradient is for the plain MP2 functional; when
	// SCS energies are requested the gradient still corresponds to plain
	// MP2 (as in the paper, which reports SCS energetics but plain-MP2
	// dynamics).
	return r.ETotal, grad, fieldGrad, st, nil
}

// PartialCharges implements fragment.ChargeSource: Mulliken charges of
// the RI-HF reference (the MP2 correction does not relax the density
// used for embedding charges — phase 1 needs the reference SCF only).
func (p *RIMP2) PartialCharges(g *molecule.Geometry, field *integrals.PointCharges) ([]float64, int, error) {
	return p.hf().PartialCharges(g, field)
}

// hf is the RI-HF reference potential whose SCF driver RIMP2 shares.
func (p *RIMP2) hf() *HF {
	return &HF{Basis: p.Basis, UseRI: true, AuxOpts: p.AuxOpts, SCFOpts: p.SCFOpts}
}

// HF evaluates the Hartree-Fock energy and analytic gradient, with or
// without the RI approximation (UseRI=false is the conventional
// four-center baseline of Fig. 3).
type HF struct {
	Basis   string
	UseRI   bool
	AuxOpts basis.AuxOptions
	SCFOpts scf.Options
}

// Evaluate implements fragment.Evaluator.
func (p *HF) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	e, grad, _, err := p.EvaluateFrom(g, nil)
	return e, grad, err
}

// EvaluateFrom implements fragment.StatefulEvaluator (see RIMP2).
func (p *HF) EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (float64, []float64, *warmstart.State, error) {
	e, grad, _, st, err := p.EvaluateEmbedded(g, nil, prev)
	return e, grad, st, err
}

// run converges the HF SCF for g in the given field.
func (p *HF) run(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (*scf.Result, string, error) {
	name := p.Basis
	if name == "" {
		name = "sto-3g"
	}
	bs, err := basis.Build(name, g)
	if err != nil {
		return nil, name, err
	}
	opts := p.SCFOpts
	opts.UseRI = p.UseRI
	opts.AuxOpts = p.AuxOpts
	opts.EmbedCharges = field
	applyGuess(&opts, prev, g, name, bs.N)
	ref, err := scf.RHF(g, bs, opts)
	return ref, name, err
}

// EvaluateEmbedded implements fragment.EmbeddedEvaluator (see RIMP2).
func (p *HF) EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (float64, []float64, []float64, *warmstart.State, error) {
	ref, name, err := p.run(g, field, prev)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	grad, fieldGrad := ref.Gradients()
	return ref.Energy, grad, fieldGrad, stateFromSCF(g, ref, name), nil
}

// PartialCharges implements fragment.ChargeSource: Mulliken charges of
// the converged (optionally embedded) SCF density.
func (p *HF) PartialCharges(g *molecule.Geometry, field *integrals.PointCharges) ([]float64, int, error) {
	ref, _, err := p.run(g, field, nil)
	if err != nil {
		return nil, 0, err
	}
	return ref.MullikenCharges(), ref.Iters, nil
}

const (
	// ljEpsilon is the LennardJones well depth in Hartree.
	ljEpsilon = 2e-4
	// ljSigmaScale multiplies the covalent-radius-derived sigma
	// (σ_ij = ljSigmaScale·(r_i + r_j)).
	ljSigmaScale = 0.7
)

// LennardJones is a pairwise 12-6 surrogate potential with element-
// dependent radii. It is *not* chemically accurate; it exists so the MD
// integrator, the MBE assembly and the asynchronous scheduler can be
// exercised on thousands of atoms in tests and demos. Its sigma
// sits *below* covalent bond lengths so that intramolecular pairs live
// on the soft attractive branch rather than the r⁻¹² wall, keeping
// short NVE test trajectories numerically tame.
type LennardJones struct {
	// Delay optionally burns CPU per call to emulate expensive fragments
	// in scheduler tests (seconds).
	Delay float64
	// Charges assigns a fixed partial charge per atomic number (e),
	// giving the surrogate an embedding model: PartialCharges returns
	// them and EvaluateEmbedded adds the classical fragment–field
	// Coulomb energy. Because the charges are geometry-independent, the
	// embedded LJ surrogate is *exactly* conservative — the testbed for
	// EE-MBE force folding and NVE drift at scales the ab initio
	// evaluators cannot reach. A nil map means zero charges everywhere
	// (embedding becomes a no-op).
	Charges map[int]float64
}

// Evaluate implements fragment.Evaluator.
func (p *LennardJones) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	var energy float64
	grad := make([]float64, 3*g.N())
	for i := 0; i < g.N(); i++ {
		ri := chem.CovalentRadius(g.Atoms[i].Z)
		for j := i + 1; j < g.N(); j++ {
			rj := chem.CovalentRadius(g.Atoms[j].Z)
			sigma := ljSigmaScale * (ri + rj)
			// Minimum-image displacement on periodic geometries, so
			// energy and forces stay consistent across the boundary
			// (identical to the raw displacement when Cell is nil).
			d := g.Displacement(i, j)
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			// (σ/r)⁶ in the order math.Pow multiplies it — s²·(s²)² —
			// so the energies are bit-identical at a fraction of the cost.
			s2 := (sigma / r) * (sigma / r)
			sr6 := s2 * (s2 * s2)
			sr12 := sr6 * sr6
			energy += 4 * ljEpsilon * (sr12 - sr6)
			dEdr := 4 * ljEpsilon * (-12*sr12 + 6*sr6) / r
			for k := 0; k < 3; k++ {
				u := d[k] / r
				grad[3*i+k] += dEdr * u
				grad[3*j+k] -= dEdr * u
			}
		}
	}
	if p.Delay > 0 {
		burn(p.Delay)
	}
	return energy, grad, nil
}

// EvaluateFrom implements fragment.StatefulEvaluator as a trivial
// pass-through: LJ has no electronic state to warm, so prev is ignored
// and the returned state is nil.
func (p *LennardJones) EvaluateFrom(g *molecule.Geometry, _ *warmstart.State) (float64, []float64, *warmstart.State, error) {
	e, grad, err := p.Evaluate(g)
	return e, grad, nil, err
}

// PartialCharges implements fragment.ChargeSource with the fixed
// per-element charges (zeros without a Charges map); the field is
// ignored, so SCC iteration converges after the vacuum round.
func (p *LennardJones) PartialCharges(g *molecule.Geometry, _ *integrals.PointCharges) ([]float64, int, error) {
	q := make([]float64, g.N())
	for i, a := range g.Atoms {
		q[i] = p.Charges[a.Z]
	}
	return q, 0, nil
}

// EvaluateEmbedded implements fragment.EmbeddedEvaluator: the LJ
// energy plus the classical Coulomb interaction of the fragment's
// fixed partial charges with the field, with analytic forces on both
// atoms and field sites. The returned state is nil, as in EvaluateFrom.
func (p *LennardJones) EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, _ *warmstart.State) (float64, []float64, []float64, *warmstart.State, error) {
	e, grad, err := p.Evaluate(g)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	var fieldGrad []float64
	if n := field.N(); n > 0 {
		fieldGrad = make([]float64, 3*n)
		for i, at := range g.Atoms {
			qa := p.Charges[at.Z]
			if qa == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				ec, dA := integrals.CoulombPairTerm(at.Pos,
					[3]float64{field.Pos[3*c], field.Pos[3*c+1], field.Pos[3*c+2]}, qa, field.Q[c])
				e += ec
				for k := 0; k < 3; k++ {
					grad[3*i+k] += dA[k]
					fieldGrad[3*c+k] -= dA[k]
				}
			}
		}
	}
	return e, grad, fieldGrad, nil, nil
}

// burn spins for roughly d seconds of CPU work.
func burn(d float64) {
	x := 1.0
	n := int(d * 5e7)
	for i := 0; i < n; i++ {
		x = math.Sqrt(x + 1)
	}
	_ = x
}
