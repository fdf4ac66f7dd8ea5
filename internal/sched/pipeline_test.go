package sched

import (
	"math"
	"math/rand"
	"runtime"
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

// maxBytesPerPolymer bounds what a 10-step run on ljBox allocates per
// polymer evaluation, everything included: extraction, the LJ
// evaluator, the coordinator and the hand-off messages. With a fresh
// message and result slice per run, map-held positions and per-step
// maps it was 943–958 B at one worker and at two; with recycled
// messages and dense per-step state it is 599–632 B (go1.24.0,
// linux/amd64).
const maxBytesPerPolymer = 800

// A run allocates at most maxBytesPerPolymer per polymer evaluation at
// one and at two workers: extraction and evaluation allocate per task,
// hand-off messages and per-step state must not.
func TestBytesPerPolymer(t *testing.T) {
	f := ljBox(t)
	const steps = 10
	for _, workers := range []int{1, 2} {
		eng, err := New(f, &potential.LennardJones{}, Options{
			Workers: workers, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(120, rand.New(rand.NewSource(11)))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stats, err := eng.Run(state, steps, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(steps*stats[0].NPolymer)
		t.Logf("workers %d: %.0f B per polymer, %+v", workers, per, eng.RunStats())
		if per > maxBytesPerPolymer {
			t.Errorf("workers %d: %.0f B allocated per polymer, want ≤ %d", workers, per, maxBytesPerPolymer)
		}
	}
}

// slowLJ is the LJ surrogate held to at least 20 µs per evaluation,
// yielding its processor meanwhile so that the coordinator hands a
// worker its next run while the worker is still inside the current one.
type slowLJ struct{ lj potential.LennardJones }

func (s *slowLJ) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		runtime.Gosched()
	}
	return s.lj.Evaluate(g)
}

// A worker that dies while it holds two runs: the run it dies in is
// reported lost from the dying attempt on, and the run queued behind it
// — or, depending on timing, handed to it after its death but before
// the report arrived — is never started, so the coordinator reclaims
// it. Either way the trajectory matches the failure-free one and the
// worker is evicted once.
func TestChaosWorkerDiesWithTwoRunsQueued(t *testing.T) {
	f := ljBox(t)
	const steps, workers = 6, 2
	run := func(inj *resilience.FailureInjector) ([]StepStats, *Engine) {
		eng, err := New(f, &slowLJ{}, Options{Workers: workers, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
			Schedule: coord.Schedule{MaxRetries: 1}, Injector: inj})
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
	before := runtime.NumGoroutine()
	clean, _ := run(nil)
	npoly := clean[0].NPolymer
	pipelined := false
	// Worker 1 starts fewer than npoly tasks in step 0, so these deaths
	// fall in the cost-sized runs of later steps, at different depths.
	for _, offset := range []int{0, 5, 41} {
		inj, err := resilience.NewFailureInjector(resilience.InjectOptions{
			DeadWorkers: map[int]int{1: npoly + offset},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, eng := run(inj)
		for i := range clean {
			if d := math.Abs(got[i].Etot - clean[i].Etot); d > 1e-10 {
				t.Errorf("death after %d starts: step %d |ΔEtot| = %.3e Ha (> 1e-10)", npoly+offset, i, d)
			}
			if d := math.Abs(got[i].Epot - clean[i].Epot); d > 1e-10 {
				t.Errorf("death after %d starts: step %d |ΔEpot| = %.3e Ha (> 1e-10)", npoly+offset, i, d)
			}
		}
		st := eng.RunStats()
		if st.Evicted != 1 || st.Retries == 0 {
			t.Errorf("death after %d starts: %+v, want one eviction and its lost attempts retried", npoly+offset, st)
		}
		pipelined = pipelined || st.Pipelined > 0
		t.Logf("death after %d starts: %+v", npoly+offset, st)
	}
	if !pipelined {
		t.Error("no worker was handed a second run — the two-message death path never ran")
	}
	waitNoLeak(t, before)
}

// BenchmarkRunLJBox runs the 8³ periodic water box of the benchmark's
// ljbox8-dispatch workload on two workers, 20 steps per op, and reports
// wall time and bytes allocated per polymer evaluation:
//
//	go test -run '^$' -bench RunLJBox -benchtime 5x ./internal/sched/
func BenchmarkRunLJBox(b *testing.B) {
	g := molecule.WaterBox(8, 8, 8, 1)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{
		MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(f, &potential.LennardJones{}, Options{
		Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
	})
	if err != nil {
		b.Fatal(err)
	}
	const steps = 20
	npoly := len(eng.polymers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := md.NewState(g.Clone())
		state.SampleVelocities(150, rand.New(rand.NewSource(int64(i))))
		if _, err := eng.Run(state, steps, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	evals := float64(b.N * steps * npoly)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/evals, "ns/polymer")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/evals, "B/polymer")
}

// sched.New's topology — polymers, templates, keys, touch sets and task
// graph — is linear in the polymer count: the heap it retains per
// polymer on the 16³ water box (about 64 k polymers) is at most 10 %
// above that on the 8³ box (about 8 k), both with the ljbox8-dispatch
// cutoffs. Both measured about 465 B per polymer.
func TestTopologyBytesPerPolymerFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("the 16³ box enumerates 64 k polymers")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perPolymer := func(edge int) float64 {
		f, err := fragment.ByMolecule(molecule.WaterBox(edge, edge, edge, 1), 3, 1, fragment.Options{
			MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := heap()
		eng, err := New(f, &potential.LennardJones{}, Options{Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs})
		if err != nil {
			t.Fatal(err)
		}
		retained := int64(heap()) - int64(before)
		n := len(eng.polymers)
		runtime.KeepAlive(eng)
		per := float64(retained) / float64(n)
		t.Logf("%d³ box: %d polymers, %.0f B retained per polymer", edge, n, per)
		return per
	}
	small, large := perPolymer(8), perPolymer(16)
	if large > 1.10*small {
		t.Errorf("sched.New retains %.0f B per polymer on the 16³ box, %.0f B on the 8³: want ≤ 1.10×", large, small)
	}
}
