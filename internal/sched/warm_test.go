package sched

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// runWaterTrajectory integrates a short RI-HF NVE trajectory of a small
// water cluster with identical initial conditions, varying only the
// engine's reuse policy.
func runWaterTrajectory(t *testing.T, waters, steps int, opts Options) []StepStats {
	t.Helper()
	g := molecule.WaterCluster(waters)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := &potential.HF{UseRI: true, AuxOpts: basis.AuxOptions{PerL: []int{5, 4, 3}}}
	opts.Workers = 2
	opts.Async = true
	opts.Dt = 0.5 * chem.AtomicTimePerFs
	eng, err := New(f, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(120, rand.New(rand.NewSource(23)))
	stats, err := eng.Run(state, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// Acceptance: warm-started dynamics must reproduce the cold-start
// trajectory energies within 1e-8 Ha per polymer on a water cluster,
// while converging the SCF in strictly fewer total iterations across a
// ≥5-step trajectory. Warm starting is exact — the per-polymer guess
// only changes where the SCF starts, not where it converges.
func TestWarmStartMatchesColdTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("ab initio trajectory comparison is slow; run without -short")
	}
	const steps = 6
	cold := runWaterTrajectory(t, 2, steps, Options{})
	warm := runWaterTrajectory(t, 2, steps, Options{WarmStart: true})

	npoly := cold[0].NPolymer
	var coldIters, warmIters int
	for i := range cold {
		if d := math.Abs(cold[i].Epot - warm[i].Epot); d > 1e-8*float64(npoly) {
			t.Errorf("step %d: warm Epot deviates from cold by %.2e Ha (%d polymers)", i, d, npoly)
		}
		if warm[i].Skipped != 0 {
			t.Errorf("step %d: %d evaluations skipped", i, warm[i].Skipped)
		}
		if cold[i].SCFIters == 0 || warm[i].SCFIters == 0 {
			t.Fatalf("step %d: missing SCF iteration counts (cold %d, warm %d)",
				i, cold[i].SCFIters, warm[i].SCFIters)
		}
		coldIters += cold[i].SCFIters
		warmIters += warm[i].SCFIters
	}
	if warmIters >= coldIters {
		t.Errorf("warm total SCF iterations %d not strictly below cold %d", warmIters, coldIters)
	}
	t.Logf("total SCF iterations over %d steps: cold %d, warm %d (%.0f%% saved)",
		steps, coldIters, warmIters, 100*(1-float64(warmIters)/float64(coldIters)))
}

// Step 0 has no previous state, so cold and warm step-0 iteration
// counts must be identical; savings appear from step 1 on.
func TestWarmStartFirstStepIsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("ab initio trajectory comparison is slow; run without -short")
	}
	cold := runWaterTrajectory(t, 2, 2, Options{})
	warm := runWaterTrajectory(t, 2, 2, Options{WarmStart: true})
	if cold[0].SCFIters != warm[0].SCFIters {
		t.Errorf("step-0 iterations differ: cold %d vs warm %d", cold[0].SCFIters, warm[0].SCFIters)
	}
	if warm[1].SCFIters >= cold[1].SCFIters {
		t.Errorf("step-1 warm iterations %d not below cold %d", warm[1].SCFIters, cold[1].SCFIters)
	}
}

// statefulLJ is a fragment.StatefulEvaluator fake: LJ numerics and a
// state that carries only the atom list. LJ itself returns no state,
// so this is what gives the cache, checkpoint and resume plumbing
// entries to move in LJ-speed tests.
type statefulLJ struct{ potential.LennardJones }

func (s *statefulLJ) EvaluateFrom(g *molecule.Geometry, _ *warmstart.State) (float64, []float64, *warmstart.State, error) {
	e, grad, err := s.Evaluate(g)
	st := &warmstart.State{}
	st.Snapshot(g)
	return e, grad, st, err
}

// The engine must expose its cache so callers can inspect its counters
// or carry the warmed states into another engine. Every polymer is
// evaluated every step: the cache serves a guess on each visit after
// the first and never stands in for an evaluation.
func TestEngineCacheExposed(t *testing.T) {
	f := ljFrag(t, 3, fragment.Options{})
	eng, err := New(f, &statefulLJ{}, Options{Dt: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cache() == nil {
		t.Fatal("cache not created with WarmStart set")
	}
	const steps = 6
	state := newLJState(f, 2)
	stats, err := eng.Run(state, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	npoly := len(eng.polymers)
	if eng.Cache().Len() != npoly {
		t.Errorf("cache holds %d states, want %d", eng.Cache().Len(), npoly)
	}
	for _, st := range stats {
		if st.Skipped != 0 {
			t.Errorf("step %d reported %d skipped evaluations", st.Step, st.Skipped)
		}
	}
	if s := eng.Cache().Stats(); s.Skips != 0 || s.Hits != (steps-1)*npoly || s.Misses != npoly {
		t.Errorf("cache stats %+v, want %d hits, %d misses, no skips", s, (steps-1)*npoly, npoly)
	}
	cold, err := New(f, &potential.LennardJones{}, Options{Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache() != nil {
		t.Error("cache created without warm-start options")
	}
}
