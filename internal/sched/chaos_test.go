package sched

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
)

// chaosSystem builds the shared chaos workload: a water cluster with
// enough polymers for failures to land mid-trajectory.
func chaosSystem(t *testing.T) *fragment.Fragmentation {
	t.Helper()
	g := molecule.WaterCluster(6)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{
		DimerCutoff: 14, TrimerCutoff: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// chaosRun integrates steps of LJ dynamics from a fixed seed and
// returns the per-step stats.
func chaosRun(t *testing.T, f *fragment.Fragmentation, opts Options, steps int) ([]StepStats, *Engine) {
	t.Helper()
	opts.Dt = 0.5 * chem.AtomicTimePerFs
	opts.Async = true
	eng, err := New(f, &potential.LennardJones{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(120, rand.New(rand.NewSource(11)))
	stats, err := eng.Run(state, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats, eng
}

// The chaos acceptance test: a trajectory under injected task
// failures, a worker death, stragglers and speculation reproduces the
// failure-free trajectory's energies to ≤ 1e-10 Ha — resilience
// changes placement and retries, never physics.
func TestChaosEnergiesMatchFailureFree(t *testing.T) {
	f := chaosSystem(t)
	const steps = 4
	clean, _ := chaosRun(t, f, Options{Workers: 4}, steps)

	// Worker 2 dies starting its first task. That the death is *observed*
	// is guaranteed only without speculation: the run's initial sweep
	// hands every idle worker a task while any is ready (step 0 starts
	// with all polymers ready, far more than 4), and that task can then
	// only complete through the dead worker's report. A death keyed on a
	// later task may never fire — with a microsecond evaluator the other
	// workers can drain the trajectory before worker 2 is handed its n-th
	// — and under speculation a twin copy can complete the dead worker's
	// task and end the run before its goroutine was ever scheduled.
	for _, speculate := range []bool{false, true} {
		inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
			Seed:          5,
			TaskFailProb:  0.15,
			DeadWorkers:   map[int]int{2: 0},
			StragglerProb: 0.1, StragglerFactor: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		chaos, eng := chaosRun(t, f, Options{
			Workers: 4, Schedule: coord.Schedule{MaxRetries: 8, Speculate: speculate}, Injector: inj,
		}, steps)

		if len(chaos) != len(clean) {
			t.Fatalf("chaos run reported %d steps, clean %d", len(chaos), len(clean))
		}
		for i := range clean {
			if d := math.Abs(chaos[i].Etot - clean[i].Etot); d > 1e-10 {
				t.Errorf("step %d: |ΔEtot| = %.3e Ha under failure injection (> 1e-10)", i, d)
			}
			if d := math.Abs(chaos[i].Epot - clean[i].Epot); d > 1e-10 {
				t.Errorf("step %d: |ΔEpot| = %.3e Ha under failure injection (> 1e-10)", i, d)
			}
		}
		st := eng.RunStats()
		if st.Retries == 0 {
			t.Error("no retries recorded — the injector never fired, test is vacuous")
		}
		if st.Evicted > 1 || (!speculate && st.Evicted != 1) {
			t.Errorf("speculate=%t: Evicted = %d, want worker 2's scripted death and no other", speculate, st.Evicted)
		}
	}
}

// Repeating the same chaos configuration yields the same failure
// pattern: injected decisions are functions of stable identifiers, not
// of goroutine timing.
func TestChaosInjectionDeterministicAcrossRuns(t *testing.T) {
	f := chaosSystem(t)
	run := func() ([]StepStats, int) {
		inj, err := resilience.NewFailureInjector(resilience.InjectOptions{Seed: 7, TaskFailProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		stats, eng := chaosRun(t, f, Options{Workers: 3, Schedule: coord.Schedule{MaxRetries: 10}, Injector: inj}, 3)
		return stats, eng.RunStats().Retries
	}
	s1, r1 := run()
	s2, r2 := run()
	if r1 != r2 {
		t.Errorf("retry counts differ across identical runs: %d vs %d", r1, r2)
	}
	if r1 == 0 {
		t.Error("no retries — injector never fired")
	}
	for i := range s1 {
		if d := math.Abs(s1[i].Etot - s2[i].Etot); d > 1e-10 {
			t.Errorf("step %d energies differ across identical chaos runs by %.3e", i, d)
		}
	}
}

// An evaluator panic is a retryable failure, not a dead worker and not
// a wedged run.
func TestChaosEvaluatorPanicRetried(t *testing.T) {
	f := chaosSystem(t)
	clean, _ := chaosRun(t, f, Options{Workers: 3}, 2)

	eval := &panicOnce{inner: &potential.LennardJones{}}
	eng, err := New(f, eval, Options{
		Workers: 3, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Schedule: coord.Schedule{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(120, rand.New(rand.NewSource(11)))
	stats, err := eng.Run(state, 2, nil)
	if err != nil {
		t.Fatalf("run died on a recoverable panic: %v", err)
	}
	if !eval.fired {
		t.Fatal("panic never fired")
	}
	if eng.RunStats().Retries == 0 {
		t.Error("panicked attempt not counted as a retry")
	}
	for i := range clean {
		if d := math.Abs(stats[i].Etot - clean[i].Etot); d > 1e-10 {
			t.Errorf("step %d: |ΔEtot| = %.3e after panic recovery", i, d)
		}
	}
}

// With MaxRetries 0 (the default), failures stay fatal — the
// pre-resilience contract — and the error names the polymer.
func TestChaosRetryBudgetZeroIsFatal(t *testing.T) {
	f := chaosSystem(t)
	inj, err := resilience.NewFailureInjector(resilience.InjectOptions{Seed: 3, TaskFailProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, &potential.LennardJones{}, Options{
		Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	_, err = eng.Run(state, 1, nil)
	if err == nil {
		t.Fatal("run succeeded with every attempt failing and no retry budget")
	}
	if !strings.Contains(err.Error(), "polymer") {
		t.Errorf("error %q does not name the failed polymer", err)
	}
}

// The barrier-wedge fix, live half: an evaluator that never returns no
// longer hangs the run forever — a context deadline aborts it with a
// clear error.
func TestChaosTimeoutUnwedgesHungEvaluator(t *testing.T) {
	f := chaosSystem(t)
	hang := &hangEval{release: make(chan struct{})}
	defer close(hang.release) // let the stuck workers drain at test end
	eng, err := New(f, hang, Options{
		Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	go func() {
		_, err := eng.RunContext(ctx, state, 1, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged run reported success")
		}
		if !strings.Contains(err.Error(), "abandoned") {
			t.Errorf("got %q, want the abandoned-run error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still wedged 10s after its 100ms deadline")
	}
}

// Chaos runs must not leak worker goroutines — through completions,
// evictions, or abandoned runs.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	f := chaosSystem(t)
	before := runtime.NumGoroutine()

	// A run with a worker death (one goroutine exits early, the rest by
	// channel close).
	inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
		Seed: 5, TaskFailProb: 0.1, DeadWorkers: map[int]int{0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaosRun(t, f, Options{Workers: 4, Schedule: coord.Schedule{MaxRetries: 8}, Injector: inj}, 2)

	// An aborted run (budget exhausted mid-flight).
	injAll, err := resilience.NewFailureInjector(resilience.InjectOptions{Seed: 2, TaskFailProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, &potential.LennardJones{}, Options{
		Workers: 4, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Injector: injAll, Schedule: coord.Schedule{MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	if _, err := eng.Run(state, 1, nil); err == nil {
		t.Fatal("all-failing run succeeded")
	}
	waitNoLeak(t, before)
}

// waitNoLeak fails the test unless the goroutine count falls back to
// before within five seconds: finished runs leave no worker behind.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after chaos runs", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// panicOnce panics on the first evaluation only.
type panicOnce struct {
	inner fragment.Evaluator
	mu    sync.Mutex
	fired bool
}

func (p *panicOnce) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	p.mu.Lock()
	first := !p.fired
	p.fired = true
	p.mu.Unlock()
	if first {
		panic("chaos: injected evaluator panic")
	}
	return p.inner.Evaluate(g)
}

// hangEval blocks every evaluation until released.
type hangEval struct{ release chan struct{} }

func (h *hangEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	<-h.release
	return 0, make([]float64, 3*g.N()), nil
}
