package sched

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/resilience"
)

// ljBox is the hand-off workload: a periodic 3×3×3 water box under MBE3
// at the benchmark's LJ cutoffs, 500 polymers of a few microseconds
// each per step, so every step after the first is handed out in
// multi-task runs.
func ljBox(t *testing.T) *fragment.Fragmentation {
	t.Helper()
	f, err := fragment.ByMolecule(molecule.WaterBox(3, 3, 3, 1), 3, 1, fragment.Options{
		MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// One worker pops the queue in the same order whether it is handed one
// task or a same-step run, and folds results in that order, so its
// trajectory is bit-identical to single-task dispatch. The fixture was
// recorded by the engine before hand-offs were sized by cost, from this
// same system, seed and step count.
func TestOneWorkerHandoffsMatchSingleTaskFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/one_worker_lj_box.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct{ Epot, Ekin []float64 }
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	stats, eng := chaosRun(t, ljBox(t), Options{Workers: 1}, len(want.Epot))
	if eng.RunStats().Coalesced == 0 {
		t.Fatal("no task was dispatched behind another — the comparison would not cover hand-offs")
	}
	for i, st := range stats {
		if st.Epot != want.Epot[i] || st.Ekin != want.Ekin[i] {
			t.Errorf("step %d: Epot %.17g Ekin %.17g, single-task dispatch gave %.17g %.17g",
				i, st.Epot, st.Ekin, want.Epot[i], want.Ekin[i])
		}
	}
}

// Failures inside multi-task hand-offs: a worker dying part-way through
// a run loses the attempt it started and every attempt behind it, and
// injected task failures land on tasks with runs around them. Either
// way the trajectory matches the failure-free one, the dead worker is
// evicted exactly once, and no worker goroutine outlives its run.
func TestChaosFailuresInsideHandoffs(t *testing.T) {
	f := ljBox(t)
	const steps, workers = 8, 2
	before := runtime.NumGoroutine()
	clean, _ := chaosRun(t, f, Options{Workers: workers}, steps)
	npoly := clean[0].NPolymer
	match := func(what string, got []StepStats) {
		t.Helper()
		for i := range clean {
			if d := math.Abs(got[i].Etot - clean[i].Etot); d > 1e-10 {
				t.Errorf("%s: step %d |ΔEtot| = %.3e Ha (> 1e-10)", what, i, d)
			}
			if d := math.Abs(got[i].Epot - clean[i].Epot); d > 1e-10 {
				t.Errorf("%s: step %d |ΔEpot| = %.3e Ha (> 1e-10)", what, i, d)
			}
		}
	}

	// Worker 1 runs fewer than npoly single tasks in step 0 (worker 0
	// runs the rest), so a death at or beyond its npoly-th start falls in
	// a cost-sized run of a later step — and it reaches that start as
	// long as it gets a seventh of the trajectory's tasks. Whether
	// attempts sit behind the dying one depends on where in its run it
	// falls, so a few offsets are tried and at least one must lose more
	// than one attempt.
	lostBehind := false
	for _, offset := range []int{0, 29, 61, 97} {
		inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
			DeadWorkers: map[int]int{1: npoly + offset},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, eng := chaosRun(t, f, Options{Workers: workers, Schedule: coord.Schedule{MaxRetries: 1}, Injector: inj}, steps)
		match("worker death", got)
		st := eng.RunStats()
		if st.Evicted != 1 {
			t.Errorf("death after %d tasks: Evicted = %d, want 1", npoly+offset, st.Evicted)
		}
		if st.Coalesced == 0 {
			t.Errorf("death after %d tasks: no multi-task hand-off", npoly+offset)
		}
		// With no task failures every retry is an attempt the death took.
		t.Logf("death after %d starts lost %d attempts", npoly+offset, st.Retries)
		lostBehind = lostBehind || st.Retries >= 2
	}
	if !lostBehind {
		t.Error("no death lost an attempt queued behind the dying one — the multi-task loss path never ran")
	}

	inj, err := resilience.NewFailureInjector(resilience.InjectOptions{Seed: 9, TaskFailProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	late := 0 // failures after step 0, where hand-offs are cost-sized
	for s := int32(1); s < steps; s++ {
		for p := int32(0); p < int32(npoly); p++ {
			if inj.FailTask(p, s, 0) {
				late++
			}
		}
	}
	if late == 0 {
		t.Fatal("the injector fails no task after step 0 — the test is vacuous")
	}
	got, eng := chaosRun(t, f, Options{Workers: workers, Schedule: coord.Schedule{MaxRetries: 8}, Injector: inj}, steps)
	match("task failures", got)
	if st := eng.RunStats(); st.Retries < late || st.Coalesced == 0 || st.Evicted != 0 {
		t.Errorf("task failures: %+v, want ≥ %d retries, multi-task hand-offs and no eviction", st, late)
	}
	waitNoLeak(t, before)
}

// Speculation while hand-offs are engaged: straggler copies run on idle
// workers beside the runs their twins sit in, and a copy may be
// extracted after its twin completed and the monomers it reads moved on
// to the next step. Copies extract from the positions captured when
// they were dispatched, so the trajectory is the one without
// speculation. Meant to run under the race detector.
func TestChaosSpeculationDuringHandoffs(t *testing.T) {
	f := ljBox(t)
	const steps, workers = 4, 3
	clean, _ := chaosRun(t, f, Options{Workers: workers}, steps)
	inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
		Seed: 4, StragglerProb: 0.2, StragglerFactor: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, eng := chaosRun(t, f, Options{Workers: workers, Schedule: coord.Schedule{Speculate: true}, Injector: inj}, steps)
	for i := range clean {
		if d := math.Abs(got[i].Etot - clean[i].Etot); d > 1e-10 {
			t.Errorf("step %d: |ΔEtot| = %.3e Ha with speculation (> 1e-10)", i, d)
		}
	}
	st := eng.RunStats()
	if st.Speculated == 0 || st.Coalesced == 0 {
		t.Errorf("RunStats %+v: want speculative copies and multi-task hand-offs in the same run", st)
	}
	t.Logf("%+v", st)
}
