package sched

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// The restart acceptance test: a trajectory killed after k steps and
// resumed from its checkpoint reproduces the uninterrupted
// trajectory's per-step energies to ≤ 1e-10 Ha. The resumed engine's
// local step 0 re-evaluates forces at the checkpointed geometry —
// exactly the chunk-boundary semantics of chaining two Run calls — so
// global step k−1 appears in both runs and every later step must
// match.
func TestCheckpointResumeReproducesTrajectory(t *testing.T) {
	f := chaosSystem(t)
	const total, cut = 6, 3
	dt := 0.5 * chem.AtomicTimePerFs
	newEngine := func(cache *warmstart.Cache) *Engine {
		eng, err := New(f, &statefulLJ{}, Options{
			Workers: 3, Async: true, Dt: dt, WarmStart: true, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	newState := func() *md.State {
		s := md.NewState(f.Geom.Clone())
		s.SampleVelocities(140, rand.New(rand.NewSource(9)))
		return s
	}

	// Uninterrupted reference.
	full, err := newEngine(warmstart.NewCache()).Run(newState(), total, nil)
	if err != nil {
		t.Fatal(err)
	}

	// "Killed" run: integrate cut steps, checkpoint, throw everything
	// away.
	cache := warmstart.NewCache()
	state := newState()
	if _, err := newEngine(cache).Run(state, cut, nil); err != nil {
		t.Fatal(err)
	}
	ck := resilience.Snapshot(state, cut, dt)
	ck.TotalSteps = total
	ck.AttachCache(cache)
	path := filepath.Join(t.TempDir(), "traj.ckpt")
	if err := resilience.Save(path, ck); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process-worth of state: everything rebuilt from
	// the checkpoint file.
	loaded, err := resilience.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Matches(f.Geom) {
		t.Fatal("checkpoint does not match the system geometry")
	}
	resumedState, err := loaded.State()
	if err != nil {
		t.Fatal(err)
	}
	resumedCache := warmstart.NewCache()
	if err := loaded.RestoreCache(resumedCache); err != nil {
		t.Fatal(err)
	}
	if resumedCache.Len() == 0 {
		t.Fatal("warm cache empty after restore")
	}
	// Continuation: local step i is global step StepsDone−1+i, so the
	// remaining run has total−StepsDone+1 steps.
	rest, err := newEngine(resumedCache).Run(resumedState, total-loaded.StepsDone+1, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i, st := range rest {
		global := loaded.StepsDone - 1 + i
		if d := math.Abs(st.Etot - full[global].Etot); d > 1e-10 {
			t.Errorf("global step %d: |ΔEtot| = %.3e Ha between resumed and uninterrupted runs", global, d)
		}
		if d := math.Abs(st.Epot - full[global].Epot); d > 1e-10 {
			t.Errorf("global step %d: |ΔEpot| = %.3e Ha between resumed and uninterrupted runs", global, d)
		}
	}
}
