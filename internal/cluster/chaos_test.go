package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/resilience"
)

// A simulated run with a nonzero failure rate completes every time
// step, records the recoveries, and loses work — but no steps.
func TestSimulateMTBFFailuresRecover(t *testing.T) {
	w := UreaWorkload(96, 1, 4.0, 0)
	m := Frontier()
	m.RestartSeconds = 0.5

	clean, err := Simulate(w, m, Options{Nodes: 2, Steps: 3, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	// MTBF of a fraction of the clean makespan per worker guarantees
	// failures strike mid-run.
	res, err := Simulate(w, m, Options{
		Nodes: 2, Steps: 3, Async: true,
		MTBF: clean.Makespan / 4, Schedule: coord.Schedule{MaxRetries: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("no recoveries with MTBF a quarter of the makespan — failures never struck")
	}
	if res.LostWork <= 0 {
		t.Error("failures recorded but no lost work")
	}
	if res.RestartOverhead <= 0 {
		t.Error("restarting workers recorded no downtime")
	}
	if len(res.StepSeconds) != 3 {
		t.Fatalf("%d step spans, want 3", len(res.StepSeconds))
	}
	for i, s := range res.StepSeconds {
		if s <= 0 || s != s {
			t.Errorf("step %d span %g — a time step was lost", i, s)
		}
	}
	if res.Makespan < clean.Makespan {
		t.Errorf("failures sped the run up: %g < %g", res.Makespan, clean.Makespan)
	}
	if res.Evicted != 0 {
		t.Errorf("restartable failures evicted %d workers", res.Evicted)
	}
}

// Permanent failures evict workers; the run still completes on the
// survivors.
func TestSimulatePermanentFailuresEvict(t *testing.T) {
	w := UreaWorkload(64, 1, 4.0, 0)
	m := Frontier()
	clean, err := Simulate(w, m, Options{Nodes: 2, Steps: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(w, m, Options{
		Nodes: 2, Steps: 2, Async: true,
		MTBF: clean.Makespan, FailPermanent: true, Schedule: coord.Schedule{MaxRetries: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted == 0 {
		t.Fatal("no workers evicted under permanent failures at MTBF ≈ makespan")
	}
	if res.Evicted >= res.Workers {
		t.Fatalf("all %d workers evicted yet the run completed", res.Workers)
	}
	if res.Recoveries == 0 {
		t.Error("evictions without reclaimed in-flight tasks")
	}
}

// Dispatch — and therefore the whole simulation — is deterministic for
// a fixed seed, with failures, stragglers and speculation all active.
func TestSimulateChaosDeterministicForSeed(t *testing.T) {
	w := UreaWorkload(64, 1, 4.0, 0)
	m := Frontier()
	m.RestartSeconds = 0.2
	run := func() ([]string, *Result) {
		inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
			Seed: 13, TaskFailProb: 0.05, StragglerProb: 0.05, StragglerFactor: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		res, err := Simulate(w, m, Options{
			Nodes: 1, Steps: 2, Async: true, Seed: 21, Jitter: 0.2,
			MTBF: 0.05, Injector: inj,
			Schedule: coord.Schedule{
				MaxRetries: 100, Speculate: true,
				TraceDispatch: func(tk coord.Task, meta coord.DispatchMeta) {
					trace = append(trace, fmt.Sprintf("%d@%d#%d spec=%v", tk.Poly, tk.Step, meta.Attempt, meta.Speculative))
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace, res
	}
	t1, r1 := run()
	t2, r2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("dispatch traces differ in length: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("dispatch %d differs: %q vs %q", i, t1[i], t2[i])
		}
	}
	if r1.Makespan != r2.Makespan || r1.Recoveries != r2.Recoveries ||
		r1.LostWork != r2.LostWork || r1.Speculated != r2.Speculated {
		t.Errorf("results differ for the same seed:\n%+v\n%+v", r1, r2)
	}
	if r1.Recoveries == 0 {
		t.Error("chaos configuration produced no failures — test is vacuous")
	}
	if len(t1) <= r1.NPolymers*2 {
		t.Errorf("trace has %d dispatches for %d tasks — no retries/speculation visible",
			len(t1), r1.NPolymers*2)
	}
}

// Toggling MTBF must not perturb the jitter stream: a failure-free run
// and the baseline produce identical makespans when MTBF is far beyond
// the run's horizon.
func TestSimulateFailureRNGIndependentOfJitter(t *testing.T) {
	w := UreaWorkload(48, 1, 4.0, 0)
	m := Frontier()
	base, err := Simulate(w, m, Options{Nodes: 1, Steps: 2, Async: true, Seed: 3, Jitter: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Simulate(w, m, Options{Nodes: 1, Steps: 2, Async: true, Seed: 3, Jitter: 0.3,
		MTBF: 1e12, Schedule: coord.Schedule{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != far.Makespan {
		t.Errorf("enabling an (unreachable) MTBF changed the jitter draws: %g vs %g",
			base.Makespan, far.Makespan)
	}
}

func TestSimulateFailureValidation(t *testing.T) {
	w := UreaWorkload(16, 1, 4.0, 0)
	if _, err := Simulate(w, Frontier(), Options{Nodes: 1, Steps: 1, MTBF: -1}); err == nil {
		t.Error("negative MTBF accepted")
	}
	_, err := Simulate(w, Frontier(), Options{Nodes: 1, Steps: 1, MTBF: 10})
	if err == nil || !strings.Contains(err.Error(), "MaxRetries") {
		t.Errorf("MTBF without a retry budget: got %v, want a MaxRetries error", err)
	}
}
