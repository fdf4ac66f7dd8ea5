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
// trajectory's per-step energies to ≤ 1e-10 Ha. The checkpoint carries
// the forces at its geometry, so the resumed engine continues from
// them: its local step 0 is global step k, and no step is evaluated
// twice.
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
	if resumedState.ForcesHere() == nil {
		t.Fatal("checkpoint restored no forces at its geometry")
	}
	// Continuation: local step i is global step StepsDone+i, so the
	// remaining run has total−StepsDone steps.
	rest, err := newEngine(resumedCache).Run(resumedState, total-loaded.StepsDone, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i, st := range rest {
		global := loaded.StepsDone + i
		if d := math.Abs(st.Etot - full[global].Etot); d > 1e-10 {
			t.Errorf("global step %d: |ΔEtot| = %.3e Ha between resumed and uninterrupted runs", global, d)
		}
		if d := math.Abs(st.Epot - full[global].Epot); d > 1e-10 {
			t.Errorf("global step %d: |ΔEpot| = %.3e Ha between resumed and uninterrupted runs", global, d)
		}
	}
}

// A run continues only from forces taken at the state's positions: the
// forces a run leaves are continued from, bit for bit as if the two
// runs were one, while forces taken at other positions, or with a
// gradient or position list of the wrong length, leave step 0 to be
// evaluated exactly as from a state without forces.
func TestRunContinuesOnlyFromForcesHere(t *testing.T) {
	f := chaosSystem(t)
	eng, err := New(f, &statefulLJ{}, Options{Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	newState := func() *md.State {
		s := md.NewState(f.Geom.Clone())
		s.SampleVelocities(140, rand.New(rand.NewSource(9)))
		return s
	}
	ref, err := eng.Run(newState(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, got, want []StepStats) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i].Etot) != math.Float64bits(want[i].Etot) ||
				math.Float64bits(got[i].Epot) != math.Float64bits(want[i].Epot) {
				t.Errorf("%s: local step %d Etot %.15f Epot %.15f, want %.15f %.15f",
					name, i, got[i].Etot, got[i].Epot, want[i].Etot, want[i].Epot)
			}
		}
	}

	cont := newState()
	if _, err := eng.Run(cont, 1, nil); err != nil {
		t.Fatal(err)
	}
	if cont.ForcesHere() == nil {
		t.Fatal("a successful run left no forces at its final positions")
	}
	rest, err := eng.Run(cont, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("continued", rest, ref[1:])

	n := 3 * f.Geom.N()
	for name, forces := range map[string]func(at []float64) *md.Forces{
		"elsewhere": func(at []float64) *md.Forces {
			at[4] += 1e-3
			return &md.Forces{Epot: 1, Grad: make([]float64, n), At: at}
		},
		"short grad": func(at []float64) *md.Forces { return &md.Forces{Epot: 1, Grad: make([]float64, n-1), At: at} },
		"short at":   func(at []float64) *md.Forces { return &md.Forces{Epot: 1, Grad: make([]float64, n), At: at[:n-3]} },
	} {
		s := newState()
		at := make([]float64, 0, n)
		for _, a := range s.Geom.Atoms {
			at = append(at, a.Pos[:]...)
		}
		s.Forces = forces(at)
		got, err := eng.Run(s, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		same(name, got, ref)
	}
}
