package fragment

import (
	"fmt"
	"sort"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Evaluator computes the total energy and nuclear gradient of a
// standalone fragment geometry. Implementations live in package
// potential (RI-MP2, RI-HF, and fast surrogate potentials).
type Evaluator interface {
	Evaluate(g *molecule.Geometry) (energy float64, grad []float64, err error)
}

// StatefulEvaluator is an Evaluator that can additionally start from —
// and hand back — a reusable electronic state, the incremental-
// evaluation hook for AIMD: prev (which may be nil for a cold start) is
// injected as the SCF initial guess, and the returned state snapshots
// the new converged result for the next step. Evaluate(g) must be
// numerically equivalent to EvaluateFrom(g, nil). Evaluators with no
// electronic state (the LJ surrogate) pass through and return a nil
// state: there is nothing to warm-start.
type StatefulEvaluator interface {
	Evaluator
	EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (energy float64, grad []float64, next *warmstart.State, err error)
}

// EvaluateWithCache runs one polymer evaluation through the cache:
// warm-started stateful evaluation when available, plain evaluation
// otherwise. It returns the energy, gradient and SCF iteration count.
// It is shared by the serial Compute path and the asynchronous
// scheduler (which calls it from concurrent workers — the cache
// synchronises internally). Under straggler speculation the scheduler
// may evaluate the same polymer key concurrently with itself on the
// same geometry; both copies converge to equivalent states and the
// cache keeps whichever Put lands last, so the race is benign.
func EvaluateWithCache(eval Evaluator, cache *warmstart.Cache, key string, g *molecule.Geometry) (float64, []float64, int, error) {
	se, ok := eval.(StatefulEvaluator)
	if !ok {
		e, grad, err := eval.Evaluate(g)
		return e, grad, 0, err
	}
	var prev *warmstart.State
	if cache != nil {
		prev = cache.Guess(key, g)
	}
	e, grad, st, err := se.EvaluateFrom(g, prev)
	if err != nil {
		return 0, nil, 0, err
	}
	iters := 0
	if st != nil {
		iters = st.SCFIters
		if cache != nil {
			cache.Put(key, st)
		}
	}
	return e, grad, iters, nil
}

// Terms classifies the polymers of the truncated expansion.
type Terms struct {
	Monomers []Polymer
	// Dimers within the dimer cutoff: contribute ΔE_IJ.
	Dimers []Polymer
	// Trimers within the trimer cutoff: contribute ΔE_IJK.
	Trimers []Polymer
	// ExtraDimers are outside the dimer cutoff but constituents of an
	// included trimer; they are evaluated for the ΔE_IJK assembly but
	// contribute no ΔE_IJ of their own.
	ExtraDimers []Polymer
}

// All returns every polymer requiring evaluation, monomers first, then
// dimers (included + extra), then trimers.
func (t *Terms) All() []Polymer {
	out := make([]Polymer, 0, len(t.Monomers)+len(t.Dimers)+len(t.ExtraDimers)+len(t.Trimers))
	out = append(out, t.Monomers...)
	out = append(out, t.Dimers...)
	out = append(out, t.ExtraDimers...)
	out = append(out, t.Trimers...)
	return out
}

// Terms enumerates the truncated MBE polymer lists under the configured
// cutoffs (centroid distances, paper §V-B; minimum-image when the
// geometry is periodic). Monomer centroids are computed once for the
// whole pass and enumeration runs through the cell list (or the brute
// oracle under Opts.Brute — both yield identical lists in identical
// order), so the cost is O(nm) for bounded density rather than the
// former O(nm³) of per-pair centroid recomputation.
func (f *Fragmentation) Terms() *Terms {
	n := len(f.Monomers)
	t := &Terms{}
	for i := 0; i < n; i++ {
		t.Monomers = append(t.Monomers, Polymer{Monomers: []int{i}})
	}
	cents := f.centroids()
	src := f.centroidSource(cents)
	inCut := map[[2]int]bool{}
	src.Pairs(f.Opts.DimerCutoff, func(i, j int) bool {
		inCut[[2]int{i, j}] = true
		t.Dimers = append(t.Dimers, Polymer{Monomers: []int{i, j}}) // lex order by contract
		return true
	})
	if f.Opts.MaxOrder >= 3 {
		needed := map[[2]int]bool{}
		src.Triples(f.Opts.TrimerCutoff, func(i, j, k int) bool {
			t.Trimers = append(t.Trimers, Polymer{Monomers: []int{i, j, k}})
			for _, d := range [][2]int{{i, j}, {i, k}, {j, k}} {
				if !inCut[d] {
					needed[d] = true
				}
			}
			return true
		})
		for d := range needed {
			t.ExtraDimers = append(t.ExtraDimers, Polymer{Monomers: []int{d[0], d[1]}})
		}
		sortPolymers(t.ExtraDimers)
	}
	return t
}

func sortPolymers(ps []Polymer) {
	sort.Slice(ps, func(a, b int) bool {
		pa, pb := ps[a].Monomers, ps[b].Monomers
		for k := range pa {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		return false
	})
}

// Coefficients returns the raw-energy MBE coefficient of every polymer
// to evaluate: E_MBE = Σ_p coeff(p)·E_p. Monomers start at 1 and are
// decremented by their dimer and incremented by their trimer
// memberships; dimers in cutoff get +1 and −1 per containing trimer;
// extra dimers get −1 per containing trimer only; trimers get +1.
func (t *Terms) Coefficients() map[string]float64 {
	coeff := map[string]float64{}
	for _, m := range t.Monomers {
		coeff[m.Key()] = 1
	}
	for _, d := range t.Dimers {
		coeff[d.Key()] += 1
		coeff[Polymer{Monomers: []int{d.Monomers[0]}}.Key()]--
		coeff[Polymer{Monomers: []int{d.Monomers[1]}}.Key()]--
	}
	for _, tr := range t.Trimers {
		coeff[tr.Key()] += 1
		i, j, k := tr.Monomers[0], tr.Monomers[1], tr.Monomers[2]
		for _, d := range [][2]int{{i, j}, {i, k}, {j, k}} {
			coeff[Polymer{Monomers: []int{d[0], d[1]}}.Key()]--
		}
		for _, m := range tr.Monomers {
			coeff[Polymer{Monomers: []int{m}}.Key()]++
		}
	}
	return coeff
}

// Result is an assembled MBE energy and gradient for the parent system.
type Result struct {
	Energy     float64
	Gradient   []float64 // 3N parent gradient
	NPolymers  int
	PolymerE   map[string]float64 // raw fragment energies
	DeltaDimer map[string]float64 // ΔE_IJ for dimers within cutoff
	DeltaTri   map[string]float64 // ΔE_IJK

	// SCFIters totals the SCF iterations across polymer evaluations
	// (0 when the evaluator is stateless).
	SCFIters int

	// EE-MBE extras (ComputeEmbedded only; zero/nil for vacuum MBE).
	// Charges are the phase-1 per-parent-atom embedding charges,
	// SCCRounds the number of charge rounds actually run, and
	// EPairResidual the far-pair double-counting correction included in
	// Energy (see embed.go).
	Charges       []float64
	SCCRounds     int
	EPairResidual float64
}

// Compute evaluates every required polymer with eval and assembles the
// MBE energy and gradient. It is the serial reference path; package
// sched provides the asynchronous distributed engine with identical
// numerics.
func (f *Fragmentation) Compute(eval Evaluator) (*Result, error) {
	return f.ComputeWithCache(eval, nil)
}

// ComputeWithCache is Compute with incremental evaluation through a
// warm-start cache: stateful evaluators receive each polymer's cached
// state as their SCF initial guess. A nil cache reproduces Compute
// exactly. The cache is
// keyed by polymer identity and may be carried across successive
// calls on (slightly) updated geometries — the AIMD usage.
func (f *Fragmentation) ComputeWithCache(eval Evaluator, cache *warmstart.Cache) (*Result, error) {
	terms := f.Terms()
	coeff := terms.Coefficients()
	all := terms.All()

	res := &Result{
		Gradient:   make([]float64, 3*f.Geom.N()),
		NPolymers:  len(all),
		PolymerE:   map[string]float64{},
		DeltaDimer: map[string]float64{},
		DeltaTri:   map[string]float64{},
	}
	grads := map[string][]float64{}
	extracts := map[string]*Extracted{}
	for _, p := range all {
		key := p.Key()
		if _, done := res.PolymerE[key]; done {
			return nil, fmt.Errorf("fragment: polymer %s enumerated twice", key)
		}
		ex := f.Extract(p)
		e, g, iters, err := EvaluateWithCache(eval, cache, key, ex.Geom)
		if err != nil {
			return nil, fmt.Errorf("fragment: polymer %s: %w", key, err)
		}
		res.SCFIters += iters
		res.PolymerE[key] = e
		grads[key] = g
		extracts[key] = ex
	}

	// Deterministic assembly order (the enumeration order, not map
	// range): float accumulation is order-sensitive in the last bits,
	// and the golden-trajectory regressions compare bit-for-bit.
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
	}
	if !allGrads {
		res.Gradient = nil
	}

	// ΔE bookkeeping for analysis (Fig. 5).
	mKey := func(i int) string { return Polymer{Monomers: []int{i}}.Key() }
	dimerDelta := func(d Polymer) float64 {
		return res.PolymerE[d.Key()] - res.PolymerE[mKey(d.Monomers[0])] - res.PolymerE[mKey(d.Monomers[1])]
	}
	for _, d := range terms.Dimers {
		res.DeltaDimer[d.Key()] = dimerDelta(d)
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

// Contribution is one polymer's |ΔE| against its maximum centroid
// separation — the data behind the paper's Fig. 5 cutoff analysis.
type Contribution struct {
	Order  int
	Dist   float64 // Bohr
	DeltaE float64 // Hartree
}

// Contributions lists dimer and trimer ΔE values with distances.
// Centroids are computed once for the pass (not per MonomerDist call).
func (f *Fragmentation) Contributions(res *Result) []Contribution {
	cents := f.centroids()
	dist := func(i, j int) float64 { return f.Geom.DistBetween(cents[i], cents[j]) }
	var out []Contribution
	parse := func(key string) []int {
		var a, b, c int
		switch n, _ := fmt.Sscanf(key, "%d-%d-%d", &a, &b, &c); n {
		case 3:
			return []int{a, b, c}
		default:
			fmt.Sscanf(key, "%d-%d", &a, &b)
			return []int{a, b}
		}
	}
	for key, de := range res.DeltaDimer {
		m := parse(key)
		out = append(out, Contribution{Order: 2, Dist: dist(m[0], m[1]), DeltaE: de})
	}
	for key, de := range res.DeltaTri {
		m := parse(key)
		d := dist(m[0], m[1])
		if x := dist(m[0], m[2]); x > d {
			d = x
		}
		if x := dist(m[1], m[2]); x > d {
			d = x
		}
		out = append(out, Contribution{Order: 3, Dist: d, DeltaE: de})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}
