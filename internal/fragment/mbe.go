package fragment

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/fragmd/fragmd/internal/coord"
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

// Terms is the truncated expansion as one indexed term graph. A
// polymer's index is its position in All(): monomers first (monomer m
// has index m), then dimers within the cutoff, extra dimers, and
// trimers. Per index the graph holds the polymer's MBE coefficient; per
// trimer it holds the indices of its three dimers (a dimer's
// sub-polymers are its two monomers, whose indices are their monomer
// numbers). Terms builds it once; serial assembly, the engine topology
// and the EE-MBE pair inclusion all read it.
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

	all       []Polymer
	coeff     []float64 // per index
	triDimers [][3]int  // per trimer: indices of its dimers IJ, IK, JK
}

// All returns every polymer of the expansion, in index order:
// monomers, dimers (included + extra), then trimers, those whose
// coefficient is 0 included (the engine never evaluates them; the
// serial assembly does, for the ΔE bookkeeping). The slice is the
// graph's own; callers must not modify it.
func (t *Terms) All() []Polymer { return t.all }

// Coeff returns the raw-energy MBE coefficient of polymer index i:
// E_MBE = Σ_i Coeff(i)·E_i. Monomers start at 1 and are decremented by
// their dimer and incremented by their trimer memberships; dimers in
// cutoff get +1 and −1 per containing trimer; extra dimers get −1 per
// containing trimer only; trimers get +1 — coord.Coefficients, the rule
// the cluster simulator applies to its own enumeration. Every
// coefficient is a sum of ±1, so it is exact whatever the order of the
// sum, and it is often exactly 0 (for three monomers under MBE3, every
// monomer and dimer): such a polymer is no task of the engine.
func (t *Terms) Coeff(i int) float64 { return t.coeff[i] }

// Coefficients returns Coeff keyed by Polymer.Key, the key that also
// names warm-start cache entries. It exists for the benchmark
// harness's replay pass, which names polymers by key; code in this
// module indexes the graph instead.
func (t *Terms) Coefficients() map[string]float64 {
	out := make(map[string]float64, len(t.all))
	for i, p := range t.all {
		out[p.Key()] = t.coeff[i]
	}
	return out
}

// PairInclusion returns s_IJ = Σ_{P ⊇ {I,J}} coeff(P) for every
// monomer pair, keyed [I*n+J] with I < J (members are sorted). s_IJ = 1 marks a pair fully
// treated by the expansion; the residual 1 − s_IJ is the weight of the
// surviving (double-counted) embedding interaction. It depends only on
// the enumeration, so the serial driver and the asynchronous engine
// compute it once per Terms.
func (t *Terms) PairInclusion() []float64 {
	n := len(t.Monomers)
	s := make([]float64, n*n)
	for pi, p := range t.all {
		c := t.coeff[pi]
		if c == 0 {
			continue
		}
		for x := 0; x < len(p.Monomers); x++ {
			for y := x + 1; y < len(p.Monomers); y++ {
				s[p.Monomers[x]*n+p.Monomers[y]] += c
			}
		}
	}
	return s
}

// Terms enumerates the truncated MBE polymer lists under the configured
// cutoffs (centroid distances, paper §V-B; minimum-image when the
// geometry is periodic) and builds their term graph. Monomer centroids
// are computed once for the whole pass and enumeration runs through the
// cell list, which yields the brute-force oracle's lists in its order
// (equivalence-tested), so the cost is O(nm) for bounded density rather
// than the former O(nm³) of per-pair centroid recomputation.
func (f *Fragmentation) Terms() *Terms {
	n := len(f.Monomers)
	t := &Terms{}
	for i := 0; i < n; i++ {
		t.Monomers = append(t.Monomers, Polymer{Monomers: []int{i}})
	}
	cents := f.centroids()
	src := f.centroidSource(cents)
	dimerIdx := map[[2]int]int{} // every dimer's index; −1 while an extra dimer is unsorted
	src.Pairs(f.Opts.DimerCutoff, func(i, j int) bool {
		dimerIdx[[2]int{i, j}] = n + len(t.Dimers)
		t.Dimers = append(t.Dimers, Polymer{Monomers: []int{i, j}}) // lex order by contract
		return true
	})
	if f.Opts.MaxOrder >= 3 {
		var extra [][2]int
		src.Triples(f.Opts.TrimerCutoff, func(i, j, k int) bool {
			t.Trimers = append(t.Trimers, Polymer{Monomers: []int{i, j, k}})
			for _, d := range [][2]int{{i, j}, {i, k}, {j, k}} {
				if _, ok := dimerIdx[d]; !ok {
					dimerIdx[d] = -1
					extra = append(extra, d)
				}
			}
			return true
		})
		slices.SortFunc(extra, func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for x, d := range extra {
			dimerIdx[d] = n + len(t.Dimers) + x
			t.ExtraDimers = append(t.ExtraDimers, Polymer{Monomers: []int{d[0], d[1]}})
		}
		t.triDimers = make([][3]int, len(t.Trimers))
		for x, tr := range t.Trimers {
			i, j, k := tr.Monomers[0], tr.Monomers[1], tr.Monomers[2]
			t.triDimers[x] = [3]int{dimerIdx[[2]int{i, j}], dimerIdx[[2]int{i, k}], dimerIdx[[2]int{j, k}]}
		}
	}

	t.all = make([]Polymer, 0, n+len(t.Dimers)+len(t.ExtraDimers)+len(t.Trimers))
	t.all = append(t.all, t.Monomers...)
	t.all = append(t.all, t.Dimers...)
	t.all = append(t.all, t.ExtraDimers...)
	t.all = append(t.all, t.Trimers...)
	dimers := make([][2]int32, 0, len(t.Dimers)+len(t.ExtraDimers))
	for _, d := range t.all[n : n+len(t.Dimers)+len(t.ExtraDimers)] {
		dimers = append(dimers, [2]int32{int32(d.Monomers[0]), int32(d.Monomers[1])})
	}
	trimers := make([][3]int32, len(t.Trimers))
	triDimers := make([][3]int32, len(t.Trimers))
	for x, tr := range t.Trimers {
		for k := range 3 {
			trimers[x][k], triDimers[x][k] = int32(tr.Monomers[k]), int32(t.triDimers[x][k])
		}
	}
	t.coeff = coord.Coefficients(n, dimers, len(t.Dimers), trimers, triDimers)
	return t
}

// Result is an assembled MBE energy and gradient for the parent system.
type Result struct {
	Energy     float64
	Gradient   []float64 // 3N parent gradient
	Terms      *Terms    // the term graph the result was assembled over; len(Terms.All()) polymers
	PolymerE   []float64 // raw fragment energies, per Terms index
	DeltaDimer []float64 // ΔE_IJ, aligned with Terms.Dimers
	DeltaTri   []float64 // ΔE_IJK, aligned with Terms.Trimers

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
	return f.assemble(&Result{}, func(key string, p Polymer, g *molecule.Geometry) (float64, []float64, *Field, []float64, int, error) {
		e, grad, iters, err := EvaluateWithCache(eval, cache, key, g)
		return e, grad, nil, nil, iters, err
	})
}

// assemble is the serial assembly of ComputeWithCache and
// ComputeEmbedded. It evaluates every polymer of f.Terms() in index
// order through evaluate — zero-coefficient ones too, because
// DeltaDimer and DeltaTri read their energies — which returns the
// polymer's energy, fragment gradient, embedding field (nil in vacuum),
// field-site gradient and SCF iterations. Each result is folded with
// its coefficient as it arrives, and the ΔE bookkeeping is filled at
// the end. res carries whatever the caller set before the call
// (embedding charges, phase-1 SCF iterations).
func (f *Fragmentation) assemble(res *Result, evaluate func(key string, p Polymer, g *molecule.Geometry) (e float64, grad []float64, fl *Field, fieldGrad []float64, iters int, err error)) (*Result, error) {
	terms := f.Terms()
	all := terms.All()
	res.Terms = terms
	res.Gradient = make([]float64, 3*f.Geom.N())
	res.PolymerE = make([]float64, len(all))

	// The accumulation runs in index order: float sums are
	// order-sensitive in the last bits, and the goldens compare bit for
	// bit.
	allGrads := true
	for i, p := range all {
		key := p.Key()
		ex := f.Extract(p)
		e, g, fl, fg, iters, err := evaluate(key, p, ex.Geom)
		if err != nil {
			return nil, fmt.Errorf("fragment: polymer %s: %w", key, err)
		}
		res.SCFIters += iters
		res.PolymerE[i] = e
		c := terms.coeff[i]
		if c == 0 {
			continue
		}
		res.Energy += c * e
		if g == nil {
			allGrads = false // energy-only evaluator
			continue
		}
		ex.FoldGradient(g, c, res.Gradient)
		fl.FoldGradient(fg, c, res.Gradient)
	}
	if !allGrads {
		res.Gradient = nil
	}

	// ΔE bookkeeping for analysis (Fig. 5). Under embedding these are
	// embedded deltas: the field terms of the pair cancel.
	pe := res.PolymerE
	res.DeltaDimer = make([]float64, len(terms.Dimers))
	for x, d := range terms.Dimers {
		res.DeltaDimer[x] = pe[len(terms.Monomers)+x] - pe[d.Monomers[0]] - pe[d.Monomers[1]]
	}
	res.DeltaTri = make([]float64, len(terms.Trimers))
	t0 := len(all) - len(terms.Trimers)
	for x, tr := range terms.Trimers {
		delta := pe[t0+x]
		for _, d := range terms.triDimers[x] {
			delta -= pe[d]
		}
		delta += pe[tr.Monomers[0]] + pe[tr.Monomers[1]] + pe[tr.Monomers[2]]
		res.DeltaTri[x] = delta
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

// Contributions lists res's dimer and trimer ΔE values with distances,
// sorted by distance; ties keep the enumeration order (dimers, then
// trimers), so the list is the same on every call. Centroids are
// computed once for the pass.
func (f *Fragmentation) Contributions(res *Result) []Contribution {
	cents := f.centroids()
	dist := func(i, j int) float64 { return f.Geom.DistBetween(cents[i], cents[j]) }
	t := res.Terms
	out := make([]Contribution, 0, len(t.Dimers)+len(t.Trimers))
	for x, d := range t.Dimers {
		out = append(out, Contribution{Order: 2, Dist: dist(d.Monomers[0], d.Monomers[1]), DeltaE: res.DeltaDimer[x]})
	}
	for x, tr := range t.Trimers {
		m := tr.Monomers
		d := max(dist(m[0], m[1]), dist(m[0], m[2]), dist(m[1], m[2]))
		out = append(out, Contribution{Order: 3, Dist: d, DeltaE: res.DeltaTri[x]})
	}
	slices.SortStableFunc(out, func(a, b Contribution) int { return cmp.Compare(a.Dist, b.Dist) })
	return out
}
