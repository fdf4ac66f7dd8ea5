package fragment

import (
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// This file implements the electrostatically embedded many-body
// expansion (EE-MBE): every monomer/dimer/trimer SCF is evaluated in
// the point-charge field of all monomers outside the polymer, so the
// expansion captures long-range polarisation that bare-fragment MBE
// misses at biomolecular scale. The driver is two-phase:
//
//	phase 1 — per-monomer partial charges (Mulliken), optionally
//	          iterated to self-consistency (each monomer embedded in
//	          the others' charges) with damping;
//	phase 2 — every MBE term evaluated in the resulting charge field,
//	          with the standard MBE coefficients applied to embedded
//	          energies (Dahlke–Truhlar EE-MBE).
//
// With the complete polymer set the fragment–field interaction terms
// cancel exactly in the coefficient sum (each W(I;q_K) appears with
// net coefficient 1 − s_IK where s_IK = Σ_{P ⊇ {I,K}} coeff(P) = 1).
// Under distance cutoffs s_IK < 1 for far pairs and each such pair's
// electrostatics survives once from each side — double counted. The
// driver therefore subtracts (1 − s_IK)·E_qq(I,K), the classical
// charge–charge interaction of the pair, leaving far-pair
// electrostatics counted once (the FMO-style far-pair treatment).
//
// Gradients are analytic under the frozen-charge convention: the
// charge *values* are treated as constants of the geometry (their
// response ∂q/∂R is neglected, the standard EE-MBE gradient
// approximation), while the field *sites* ride on their parent atoms,
// so every embedding force — on fragment atoms, H-caps and field
// sites — folds back onto the parent system exactly.

// EmbeddedEvaluator evaluates a standalone fragment geometry inside an
// external point-charge field, returning additionally the gradient on
// the field sites (charges held fixed). prev optionally warm-starts
// the SCF and the returned state is the next step's guess. A nil field
// must reproduce Evaluate exactly.
type EmbeddedEvaluator interface {
	Evaluator
	EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (energy float64, grad, fieldGrad []float64, next *warmstart.State, err error)
}

// ChargeSource computes per-atom partial charges of a standalone
// fragment geometry, optionally itself embedded in a field — the
// phase-1 primitive of EE-MBE. iters reports SCF iterations (0 for
// stateless models).
type ChargeSource interface {
	PartialCharges(g *molecule.Geometry, field *integrals.PointCharges) (q []float64, iters int, err error)
}

// EmbedOptions configures the two-phase EE-MBE driver.
type EmbedOptions struct {
	// SCC is the number of self-consistent charge refinement rounds
	// beyond the initial vacuum round: 0 embeds phase 2 in vacuum
	// monomer charges; r > 0 re-derives each monomer's charges embedded
	// in the others' charges r times.
	SCC int
	// SCCTol stops the SCC iteration early once max |Δq| < SCCTol (e).
	// 0 runs all SCC rounds unconditionally — the mode the asynchronous
	// engine uses, where the task graph is static.
	SCCTol float64
	// Damping mixes each SCC round with the previous charges,
	// q ← (1−Damping)·q_new + Damping·q_old, for 0 ≤ Damping < 1.
	// 0 disables mixing. The vacuum round is never damped.
	Damping float64
}

// Validate rejects malformed embed options (shared by the serial
// driver and the asynchronous engine).
func (eo *EmbedOptions) Validate() error {
	if eo.SCC < 0 {
		return fmt.Errorf("fragment: SCC round count %d must not be negative", eo.SCC)
	}
	if eo.SCCTol < 0 {
		return fmt.Errorf("fragment: SCC tolerance %g must not be negative", eo.SCCTol)
	}
	if eo.Damping < 0 || eo.Damping >= 1 {
		return fmt.Errorf("fragment: damping %g outside [0, 1)", eo.Damping)
	}
	return nil
}

// Rounds returns the total number of charge rounds (vacuum + SCC).
func (eo EmbedOptions) Rounds() int { return 1 + eo.SCC }

// CheckEmbeddable refuses electrostatic embedding of a periodic system.
// The embedding field and the far-pair correction are bare Coulomb sums
// over one image of each atom, which truncates the lattice sum of a
// periodic box — wrong for any polar cell, with no Ewald or
// damped-shifted-force treatment to fall back on. Both EE-MBE entry
// points (ComputeEmbedded and the asynchronous engine) call it before
// evaluating anything.
func (f *Fragmentation) CheckEmbeddable() error {
	c := f.Geom.Cell
	if c == nil {
		return nil
	}
	const a = chem.AngstromPerBohr
	return fmt.Errorf("fragment: electrostatic embedding is not supported in the periodic cell %.6g x %.6g x %.6g Å: "+
		"its point-charge field would be minimum-image-truncated Coulomb; embed an open cluster or drop the embedding",
		c.L[0]*a, c.L[1]*a, c.L[2]*a)
}

// Field is an embedding point-charge field whose sites sit on parent
// atoms, with the mapping needed to fold site forces back.
type Field struct {
	Charges integrals.PointCharges
	Parent  []int // site → parent atom index
}

// PC returns the field as the integrals-layer type (nil when empty, so
// vacuum and empty-field evaluations are indistinguishable).
func (fl *Field) PC() *integrals.PointCharges {
	if fl == nil || len(fl.Charges.Q) == 0 {
		return nil
	}
	return &fl.Charges
}

// FoldGradient adds factor·fieldGrad onto the parent atoms backing the
// sites. Because each site sits exactly on its parent atom (frozen
// charge values), the site force *is* the parent-atom share of the
// embedding force — no chain rule beyond the identity.
func (fl *Field) FoldGradient(fieldGrad []float64, factor float64, parentGrad []float64) {
	if fl == nil || fieldGrad == nil {
		return
	}
	for s, pa := range fl.Parent {
		for k := 0; k < 3; k++ {
			parentGrad[3*pa+k] += factor * fieldGrad[3*s+k]
		}
	}
}

// FieldFor builds the embedding field of polymer p from per-parent-atom
// charges: a site on every atom outside p's monomers, in atom-index
// order, except the cap-partner (outer) atoms of p's cut bonds — those
// atoms are represented by the H-caps already, and a point charge on top
// of a cap hydrogen would double-count the severed bond. Zero-charge
// sites are dropped. pos supplies atom positions (the scheduler's
// per-step histories, or the current geometry). The field is never
// truncated: a distance cutoff would make the embedded surface jump
// whenever a monomer crossed it.
func (f *Fragmentation) FieldFor(p Polymer, charges []float64, pos func(atom int) [3]float64) *Field {
	exclude := f.fieldExclusion(p)
	fl := &Field{}
	for a := 0; a < f.Geom.N(); a++ {
		if exclude[a] || charges[a] == 0 {
			continue
		}
		xyz := pos(a)
		fl.Charges.Pos = append(fl.Charges.Pos, xyz[0], xyz[1], xyz[2])
		fl.Charges.Q = append(fl.Charges.Q, charges[a])
		fl.Parent = append(fl.Parent, a)
	}
	return fl
}

// fieldExclusion returns the atoms carrying no field site for polymer
// p: its members plus the cut-bond outer partners (see FieldFor).
func (f *Fragmentation) fieldExclusion(p Polymer) map[int]bool {
	exclude := map[int]bool{}
	for _, mi := range p.Monomers {
		for _, a := range f.Monomers[mi].Atoms {
			exclude[a] = true
		}
	}
	for _, b := range f.cutBonds {
		switch {
		case exclude[b[0]] && !exclude[b[1]]:
			exclude[b[1]] = true
		case exclude[b[1]] && !exclude[b[0]]:
			exclude[b[0]] = true
		}
	}
	return exclude
}

// FoldCharges maps a capped fragment's per-atom charges back onto the
// parent system: real atoms map through ParentAtom, and each H-cap's
// charge is added to its inner bond atom (so every monomer's folded
// charges sum to the fragment's total charge). Entries accumulate into
// out (length = parent atom count).
func (ex *Extracted) FoldCharges(fragQ []float64, out []float64) {
	nReal := len(ex.ParentAtom)
	for i, pa := range ex.ParentAtom {
		out[pa] += fragQ[i]
	}
	for ci, cap := range ex.Caps {
		out[cap.Inner] += fragQ[nReal+ci]
	}
}

// MonomerCharges runs EE-MBE phase 1: per-monomer partial charges on
// the parent atoms, with optional self-consistent refinement (each
// monomer embedded in the others' current charges), damping and early
// convergence stop. It returns the charges, the total SCF iteration
// count, and the number of rounds actually run.
func (f *Fragmentation) MonomerCharges(cs ChargeSource, eo EmbedOptions) (q []float64, iters, rounds int, err error) {
	if err := eo.Validate(); err != nil {
		return nil, 0, 0, err
	}
	n := f.Geom.N()
	q = make([]float64, n)
	pos := func(a int) [3]float64 { return f.Geom.Atoms[a].Pos }
	for round := 0; round < eo.Rounds(); round++ {
		qNew := make([]float64, n)
		for mi := range f.Monomers {
			p := Polymer{Monomers: []int{mi}}
			ex := f.Extract(p)
			var field *integrals.PointCharges
			if round > 0 {
				field = f.FieldFor(p, q, pos).PC()
			}
			fq, it, err := cs.PartialCharges(ex.Geom, field)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("fragment: monomer %d charges (round %d): %w", mi, round, err)
			}
			if len(fq) != ex.Geom.N() {
				return nil, 0, 0, fmt.Errorf("fragment: monomer %d charges: got %d values for %d atoms",
					mi, len(fq), ex.Geom.N())
			}
			iters += it
			ex.FoldCharges(fq, qNew)
		}
		var maxD float64
		if round > 0 {
			if eo.Damping > 0 {
				for i := range qNew {
					qNew[i] = (1-eo.Damping)*qNew[i] + eo.Damping*q[i]
				}
			}
			for i := range qNew {
				if d := math.Abs(qNew[i] - q[i]); d > maxD {
					maxD = d
				}
			}
		}
		q = qNew
		rounds = round + 1
		if round > 0 && eo.SCCTol > 0 && maxD < eo.SCCTol {
			break
		}
	}
	return q, iters, rounds, nil
}

// EvaluateEmbeddedWithCache is EvaluateWithCache for embedded polymer
// evaluations: the polymer is evaluated in its field, warm-started from
// the cached state, and the field-site gradient is returned alongside
// the energy and gradient. The guess does not depend on the field.
func EvaluateEmbeddedWithCache(eval EmbeddedEvaluator, cache *warmstart.Cache, key string, g *molecule.Geometry, field *integrals.PointCharges) (e float64, grad, fieldGrad []float64, iters int, err error) {
	var prev *warmstart.State
	if cache != nil {
		prev = cache.Guess(key, g)
	}
	e, grad, fieldGrad, st, err := eval.EvaluateEmbedded(g, field, prev)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if st != nil {
		iters = st.SCFIters
		if cache != nil {
			cache.Put(key, st)
		}
	}
	return e, grad, fieldGrad, iters, nil
}

// PairInclusion returns s_IJ = Σ_{P ⊇ {I,J}} coeff(P) for every
// monomer pair, keyed [I*n+J] with I < J. s_IJ = 1 marks a pair fully
// treated by the expansion; the residual 1 − s_IJ is the weight of the
// surviving (double-counted) embedding interaction. The result depends
// only on the enumeration, so both the serial driver and the
// asynchronous engine compute it once per fragmentation.
func (f *Fragmentation) PairInclusion() []float64 {
	terms := f.Terms()
	return pairInclusion(len(f.Monomers), terms.All(), terms.Coefficients())
}

func pairInclusion(nMono int, all []Polymer, coeff map[string]float64) []float64 {
	s := make([]float64, nMono*nMono)
	for _, p := range all {
		c := coeff[p.Key()]
		if c == 0 {
			continue
		}
		for x := 0; x < len(p.Monomers); x++ {
			for y := x + 1; y < len(p.Monomers); y++ {
				i, j := p.Monomers[x], p.Monomers[y]
				if i > j {
					i, j = j, i
				}
				s[i*nMono+j] += c
			}
		}
	}
	return s
}

// PairResidual computes the double-counted far-pair electrostatics
// correction: for every monomer pair with s_IJ ≠ 1 (s from
// PairInclusion), −(1 − s_IJ)·E_qq(I,J), the classical charge–charge
// interaction of the pair's embedding charges at the given positions.
// The returned energy is the total correction (to *add* to the
// coefficient-weighted embedded sum); its analytic gradient
// accumulates into grad when non-nil. With full polymer coverage (no
// cutoffs) every s_IJ is 1 and the correction vanishes identically.
// Every pair is visited: the field is never truncated, so no far pair
// escapes the double count.
func (f *Fragmentation) PairResidual(s, charges []float64, pos func(atom int) [3]float64, grad []float64) float64 {
	n := len(f.Monomers)
	var corr float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := 1 - s[i*n+j]
			if math.Abs(w) < 1e-12 {
				continue
			}
			for _, a := range f.Monomers[i].Atoms {
				qa := charges[a]
				if qa == 0 {
					continue
				}
				pa := pos(a)
				for _, b := range f.Monomers[j].Atoms {
					qb := charges[b]
					if qb == 0 {
						continue
					}
					e, dA := integrals.CoulombPairTerm(pa, pos(b), qa, qb)
					corr -= w * e
					if grad != nil {
						for k := 0; k < 3; k++ {
							grad[3*a+k] -= w * dA[k]
							grad[3*b+k] += w * dA[k]
						}
					}
				}
			}
		}
	}
	return corr
}

// ComputeEmbedded evaluates the electrostatically embedded MBE: phase 1
// derives monomer charges (MonomerCharges), phase 2 evaluates every
// polymer in the resulting field, folding fragment, H-cap and
// field-site gradients back onto the parent system, and the far-pair
// residual correction removes the electrostatics the truncated
// expansion double-counts. The evaluator must implement both
// EmbeddedEvaluator and ChargeSource, and the system must be open
// (CheckEmbeddable). A nil cache disables reuse, as in Compute.
func (f *Fragmentation) ComputeEmbedded(eval Evaluator, cache *warmstart.Cache, eo EmbedOptions) (*Result, error) {
	if err := f.CheckEmbeddable(); err != nil {
		return nil, err
	}
	ee, ok := eval.(EmbeddedEvaluator)
	if !ok {
		return nil, fmt.Errorf("fragment: evaluator %T cannot evaluate embedded fragments", eval)
	}
	cs, ok := eval.(ChargeSource)
	if !ok {
		return nil, fmt.Errorf("fragment: evaluator %T cannot derive monomer charges", eval)
	}
	charges, chargeIters, rounds, err := f.MonomerCharges(cs, eo)
	if err != nil {
		return nil, err
	}

	terms := f.Terms()
	coeff := terms.Coefficients()
	all := terms.All()
	res := &Result{
		Gradient:   make([]float64, 3*f.Geom.N()),
		NPolymers:  len(all),
		PolymerE:   map[string]float64{},
		DeltaDimer: map[string]float64{},
		DeltaTri:   map[string]float64{},
		Charges:    charges,
		SCCRounds:  rounds,
		SCFIters:   chargeIters,
	}
	pos := func(a int) [3]float64 { return f.Geom.Atoms[a].Pos }
	grads := map[string][]float64{}
	fieldGrads := map[string][]float64{}
	extracts := map[string]*Extracted{}
	fields := map[string]*Field{}
	for _, p := range all {
		key := p.Key()
		if _, done := res.PolymerE[key]; done {
			return nil, fmt.Errorf("fragment: polymer %s enumerated twice", key)
		}
		ex := f.Extract(p)
		fl := f.FieldFor(p, charges, pos)
		e, g, fg, iters, err := EvaluateEmbeddedWithCache(ee, cache, key, ex.Geom, fl.PC())
		if err != nil {
			return nil, fmt.Errorf("fragment: polymer %s: %w", key, err)
		}
		res.SCFIters += iters
		res.PolymerE[key] = e
		grads[key] = g
		fieldGrads[key] = fg
		extracts[key] = ex
		fields[key] = fl
	}

	// Deterministic assembly order — see ComputeWithCache: the goldens
	// compare bit-for-bit, so never iterate a map here.
	allGrads := true
	for _, p := range all {
		key := p.Key()
		c := coeff[key]
		if c == 0 {
			continue
		}
		res.Energy += c * res.PolymerE[key]
		if grads[key] == nil {
			allGrads = false // energy-only evaluator
			continue
		}
		extracts[key].FoldGradient(grads[key], c, res.Gradient)
		fields[key].FoldGradient(fieldGrads[key], c, res.Gradient)
	}
	if !allGrads {
		res.Gradient = nil
	}

	s := pairInclusion(len(f.Monomers), all, coeff)
	res.EPairResidual = f.PairResidual(s, charges, pos, res.Gradient)
	res.Energy += res.EPairResidual

	// ΔE bookkeeping (embedded deltas: field terms of the pair cancel).
	mKey := func(i int) string { return Polymer{Monomers: []int{i}}.Key() }
	for _, d := range terms.Dimers {
		res.DeltaDimer[d.Key()] = res.PolymerE[d.Key()] -
			res.PolymerE[mKey(d.Monomers[0])] - res.PolymerE[mKey(d.Monomers[1])]
	}
	for _, tr := range terms.Trimers {
		i, j, k := tr.Monomers[0], tr.Monomers[1], tr.Monomers[2]
		delta := res.PolymerE[tr.Key()]
		for _, d := range [][2]int{{i, j}, {i, k}, {j, k}} {
			delta -= res.PolymerE[Polymer{Monomers: []int{d[0], d[1]}}.Key()]
		}
		delta += res.PolymerE[mKey(i)] + res.PolymerE[mKey(j)] + res.PolymerE[mKey(k)]
		res.DeltaTri[tr.Key()] = delta
	}
	return res, nil
}
