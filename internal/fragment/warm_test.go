package fragment

import (
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// ComputeWithCache(eval, nil) must reproduce Compute (the assembly
// iterates a map, so summation order — and hence the last bits — can
// differ between runs; compare at accumulation-noise level).
func TestComputeWithNilCacheIsCompute(t *testing.T) {
	g := molecule.WaterCluster(4)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := &potential.LennardJones{}
	a, err := f.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ComputeWithCache(eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Energy-b.Energy) > 1e-14 {
		t.Errorf("nil-cache compute differs: %.17f vs %.17f", a.Energy, b.Energy)
	}
	for i := range a.Gradient {
		if math.Abs(a.Gradient[i]-b.Gradient[i]) > 1e-14 {
			t.Fatal("gradients differ beyond accumulation noise")
		}
	}
}

// statefulLJ is a StatefulEvaluator fake: LJ numerics, a state that
// carries only the atom list, and a count of evaluations and of the
// warm-start guesses it was handed.
type statefulLJ struct {
	lj             potential.LennardJones
	calls, guessed int
}

func (s *statefulLJ) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	e, grad, _, err := s.EvaluateFrom(g, nil)
	return e, grad, err
}

func (s *statefulLJ) EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (float64, []float64, *warmstart.State, error) {
	s.calls++
	if prev != nil {
		s.guessed++
	}
	e, grad, err := s.lj.Evaluate(g)
	st := &warmstart.State{}
	st.Snapshot(g)
	return e, grad, st, err
}

// Repeated ComputeWithCache on an unchanged geometry evaluates every
// polymer on every pass — from the cached guess after the first — and
// reproduces the energy and gradient exactly. The cache never skips.
func TestComputeWithCacheSkipCycle(t *testing.T) {
	g := molecule.WaterCluster(3)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := &statefulLJ{}
	cache := warmstart.NewCache()

	first, err := f.ComputeWithCache(eval, cache)
	if err != nil {
		t.Fatal(err)
	}
	npoly := len(first.Terms.All())
	if eval.calls != npoly || eval.guessed != 0 {
		t.Fatalf("first pass: %d calls, %d guesses; want %d cold calls", eval.calls, eval.guessed, npoly)
	}
	if cache.Len() != npoly {
		t.Fatalf("cache holds %d states, want %d", cache.Len(), npoly)
	}
	for pass := 1; pass <= 3; pass++ {
		res, err := f.ComputeWithCache(eval, cache)
		if err != nil {
			t.Fatal(err)
		}
		if want := (pass + 1) * npoly; eval.calls != want {
			t.Fatalf("pass %d: %d evaluations in total, want %d", pass, eval.calls, want)
		}
		if want := pass * npoly; eval.guessed != want {
			t.Fatalf("pass %d: %d warm-started evaluations, want %d", pass, eval.guessed, want)
		}
		if math.Abs(res.Energy-first.Energy) > 1e-14 {
			t.Errorf("warm energy %.17f != %.17f", res.Energy, first.Energy)
		}
		for i := range first.Gradient {
			if math.Abs(res.Gradient[i]-first.Gradient[i]) > 1e-14 {
				t.Fatal("warm gradient differs beyond accumulation noise")
			}
		}
	}
	if s := cache.Stats(); s.Skips != 0 {
		t.Errorf("cache counted %d skips", s.Skips)
	}
}

// A displaced geometry is evaluated afresh in full, warm-started from
// the previous states, and matches a cold computation.
func TestComputeWithCacheDisplacementInvalidation(t *testing.T) {
	g := molecule.WaterCluster(3)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := &statefulLJ{}
	cache := warmstart.NewCache()
	if _, err := f.ComputeWithCache(eval, cache); err != nil {
		t.Fatal(err)
	}
	n1 := eval.calls
	g.Atoms[0].Pos[0] += 0.5
	res, err := f.ComputeWithCache(eval, cache)
	if err != nil {
		t.Fatal(err)
	}
	if npoly := len(res.Terms.All()); eval.calls-n1 != npoly || eval.guessed != npoly {
		t.Errorf("moved pass: %d evaluations, %d guesses; want %d of each", eval.calls-n1, eval.guessed, npoly)
	}
	fresh, err := f.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.Energy - fresh.Energy); d > 1e-12 {
		t.Errorf("cached energy deviates by %.2e", d)
	}
}

// countingEvaluator wraps LJ (without method promotion, so it stays a
// plain, non-stateful Evaluator) and counts real evaluations.
type countingEvaluator struct {
	lj    potential.LennardJones
	calls int
}

func (c *countingEvaluator) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	c.calls++
	return c.lj.Evaluate(g)
}

// A non-stateful evaluator is called for every polymer on every pass
// and leaves nothing in the cache: there is no state worth keeping.
func TestComputeWithCacheStatelessEvaluator(t *testing.T) {
	g := molecule.WaterCluster(2)
	f, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := &countingEvaluator{}
	cache := warmstart.NewCache()
	if _, err := f.ComputeWithCache(ev, cache); err != nil {
		t.Fatal(err)
	}
	n1 := ev.calls
	res, err := f.ComputeWithCache(ev, cache)
	if err != nil {
		t.Fatal(err)
	}
	if npoly := len(res.Terms.All()); ev.calls-n1 != npoly {
		t.Errorf("stateless evaluator called %d times for %d polymers", ev.calls-n1, npoly)
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d states for a stateless evaluator", cache.Len())
	}
}
