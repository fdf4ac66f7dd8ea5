package sched

import (
	"io"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

func ljFrag(t *testing.T, nWater int, opts fragment.Options) *fragment.Fragmentation {
	t.Helper()
	g := molecule.WaterCluster(nWater)
	f, err := fragment.ByMolecule(g, 3, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newLJState(f *fragment.Fragmentation, seed int64) *md.State {
	s := md.NewState(f.Geom.Clone())
	s.SampleVelocities(150, rand.New(rand.NewSource(seed)))
	return s
}

const dtFs = 0.5

// The async engine must reproduce the serial fragment.Compute reference:
// the first step's potential energy and forces are identical by
// construction.
func TestEngineMatchesSerialReference(t *testing.T) {
	f := ljFrag(t, 5, fragment.Options{})
	eval := &potential.LennardJones{}
	ref, err := f.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, eval, Options{Workers: 3, Async: true, Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	state := newLJState(f, 1)
	stats, err := eng.Run(state, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats[0].Epot-ref.Energy) > 1e-10 {
		t.Errorf("step-0 Epot %.12f != serial MBE %.12f", stats[0].Epot, ref.Energy)
	}
}

// countingEval counts the evaluations it passes on, by atom count.
type countingEval struct {
	fragment.Evaluator
	mu    sync.Mutex
	calls map[int]int
}

func (c *countingEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	c.mu.Lock()
	c.calls[g.N()]++
	c.mu.Unlock()
	return c.Evaluator.Evaluate(g)
}

// A polymer whose MBE coefficient is 0 is no task: on two waters under
// MBE2 and three under MBE3 the engine evaluates the full system alone,
// dispatches exactly the non-zero-coefficient polymers, and still gives
// the serial reference's energy and forces, which evaluates them all.
func TestEngineDispatchesOnlyNonZeroCoefficients(t *testing.T) {
	for _, tc := range []struct {
		nWater, order, polymers int
	}{{2, 2, 3}, {3, 3, 7}} {
		f := ljFrag(t, tc.nWater, fragment.Options{MaxOrder: tc.order})
		lj := &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
		ref, err := f.Compute(lj)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for i, p := range ref.Terms.All() {
			if ref.Terms.Coeff(i) != 0 {
				want[p.Key()] = true
			}
		}
		if len(want) != 1 || len(ref.Terms.All()) != tc.polymers {
			t.Fatalf("%d waters: %d of %d polymers have a non-zero coefficient, want the full system alone",
				tc.nWater, len(want), len(ref.Terms.All()))
		}
		ev := &countingEval{Evaluator: lj, calls: map[int]int{}}
		got := map[string]bool{}
		var eng *Engine
		eng, err = New(f, ev, Options{Workers: 2, Async: true, Dt: dtFs * chem.AtomicTimePerFs,
			Schedule: coord.Schedule{TraceDispatch: func(tk coord.Task, _ coord.DispatchMeta) { got[eng.polymers[tk.Poly].Key()] = true }},
		})
		if err != nil {
			t.Fatal(err)
		}
		state := newLJState(f, 1)
		if _, err := eng.Run(state, 1, nil); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%d waters: dispatched %v, want the non-zero-coefficient set %v", tc.nWater, got, want)
		}
		if n := 3 * tc.nWater; len(ev.calls) != 1 || ev.calls[n] != 1 {
			t.Errorf("%d waters: evaluations by atom count %v, want one of %d atoms", tc.nWater, ev.calls, n)
		}
		if d := math.Abs(state.Forces.Epot - ref.Energy); d > 1e-10 {
			t.Errorf("%d waters: Epot %.12f, serial MBE %.12f", tc.nWater, state.Forces.Epot, ref.Energy)
		}
		for i, g := range ref.Gradient {
			if d := math.Abs(state.Forces.Grad[i] - g); d > 1e-10 {
				t.Fatalf("%d waters: gradient component %d %.12e, serial %.12e", tc.nWater, i, state.Forces.Grad[i], g)
			}
		}
	}
}

// On the benchmark's ljbox8 geometry — 512 periodic waters, MBE3 at
// 10 and 8 Bohr — 336 of the 7 941 polymers have coefficient 0, so a
// step is 7 605 tasks.
func TestLJBox8TasksPerStep(t *testing.T) {
	f, err := fragment.ByMolecule(molecule.WaterBox(8, 8, 8, 1), 3, 1, fragment.Options{
		MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, &potential.LennardJones{}, Options{Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	if got, all := eng.Graph().NPoly(), len(eng.terms.All()); got != 7605 || all != 7941 {
		t.Errorf("%d tasks of %d polymers per step, want 7605 of 7941", got, all)
	}
}

// Async and synchronous modes are numerically the same dynamics; the
// trajectories must agree to floating-point accumulation noise.
func TestAsyncEqualsSyncTrajectory(t *testing.T) {
	eval := &potential.LennardJones{}
	run := func(async bool) (*md.State, []StepStats) {
		f := ljFrag(t, 6, fragment.Options{DimerCutoff: 12, TrimerCutoff: 9})
		eng, err := New(f, eval, Options{Workers: 4, Async: async, Dt: dtFs * chem.AtomicTimePerFs})
		if err != nil {
			t.Fatal(err)
		}
		state := newLJState(f, 7)
		stats, err := eng.Run(state, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		return state, stats
	}
	sa, statsA := run(true)
	ss, statsS := run(false)
	for i := range sa.Geom.Atoms {
		for k := 0; k < 3; k++ {
			if d := math.Abs(sa.Geom.Atoms[i].Pos[k] - ss.Geom.Atoms[i].Pos[k]); d > 1e-9 {
				t.Fatalf("async/sync positions diverge at atom %d dim %d by %.2e", i, k, d)
			}
		}
	}
	for s := range statsA {
		if d := math.Abs(statsA[s].Etot - statsS[s].Etot); d > 1e-9 {
			t.Errorf("async/sync Etot differ at step %d by %.2e", s, d)
		}
	}
}

// The engine must match the monolithic velocity-Verlet integrator when
// the MBE is exact (3 monomers, MBE3 ≡ supersystem).
func TestEngineMatchesMonolithicVV(t *testing.T) {
	f := ljFrag(t, 3, fragment.Options{})
	eval := &potential.LennardJones{}

	engState := newLJState(f, 3)
	eng, err := New(f, eval, Options{Workers: 2, Async: true, Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engState, 5, nil); err != nil {
		t.Fatal(err)
	}

	vvState := newLJState(f, 3) // same seed → same initial velocities
	vv := &md.VelocityVerlet{Dt: dtFs * chem.AtomicTimePerFs, Provider: md.ForceFunc(
		func(g *molecule.Geometry) (float64, []float64, error) { return eval.Evaluate(g) })}
	if err := vv.Run(vvState, 5, nil); err != nil {
		t.Fatal(err)
	}
	for i := range engState.Geom.Atoms {
		for k := 0; k < 3; k++ {
			d := math.Abs(engState.Geom.Atoms[i].Pos[k] - vvState.Geom.Atoms[i].Pos[k])
			if d > 1e-8 {
				t.Fatalf("engine vs monolithic VV positions differ at atom %d by %.2e", i, d)
			}
		}
	}
}

// NVE conservation through the async engine (the Fig. 6 diagnostic).
func TestAsyncEnergyConservation(t *testing.T) {
	f := ljFrag(t, 6, fragment.Options{})
	eng, err := New(f, &potential.LennardJones{}, Options{Workers: 4, Async: true, Dt: 0.25 * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	state := newLJState(f, 11)
	stats, err := eng.Run(state, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	e0 := stats[0].Etot
	for _, st := range stats {
		if math.Abs(st.Etot-e0) > 1e-5 {
			t.Fatalf("energy drift %.2e at step %d", st.Etot-e0, st.Step)
		}
	}
}

// A run keeps no per-step state past the step: each step's gradient
// buffer (3N float64) is dropped once its last monomer advances, so the
// heap of a long trajectory does not grow with its length (it grew by
// about 8 MB over these 5 000 steps while every buffer was kept).
func TestRunReleasesStepGradients(t *testing.T) {
	f := ljFrag(t, 20, fragment.Options{MaxOrder: 1})
	eng, err := New(f, &potential.LennardJones{}, Options{Workers: 2, Async: true, Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5000
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at100, atEnd uint64
	obs := func(st StepStats) {
		switch st.Step {
		case 100:
			at100 = heap()
		case steps - 1:
			atEnd = heap()
		}
	}
	if _, err := eng.Run(newLJState(f, 3), steps, obs); err != nil {
		t.Fatal(err)
	}
	if grow := int64(atEnd) - int64(at100); grow > 3<<20 {
		t.Errorf("heap grew %d KB from step 100 to step %d, want ≤ 3 MB", grow>>10, steps-1)
	}
}

// H-capped (covalent) systems must also run asynchronously: the cap
// dependency list defers fragments until neighbours advance.
func TestAsyncWithHCaps(t *testing.T) {
	g, residues := molecule.Polyglycine(4)
	f, err := fragment.New(g, residues, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, &potential.LennardJones{}, Options{Workers: 3, Async: true, Dt: 0.25 * chem.AtomicTimePerFs})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(g.Clone())
	state.SampleVelocities(100, rand.New(rand.NewSource(5)))
	stats, err := eng.Run(state, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	e0 := stats[0].Etot
	for _, st := range stats {
		if math.Abs(st.Etot-e0) > 1e-4 {
			t.Fatalf("capped-system drift %.2e", st.Etot-e0)
		}
	}
	// Touch sets of monomer fragments must include bonded neighbours.
	ts := f.TouchSet(fragment.Polymer{Monomers: []int{1}})
	if len(ts) < 2 {
		t.Errorf("touch set of interior residue = %v, want bonded neighbours included", ts)
	}
}

// Queue priority: with one worker every step-0 task is dispatched in
// pure policy order — distance to the reference monomer ascending, ties
// broken by decreasing size — before any step-1 task can overtake it.
func TestQueueOrdering(t *testing.T) {
	f := ljFrag(t, 4, fragment.Options{})
	var order []coord.Task
	eng, err := New(f, &potential.LennardJones{}, Options{
		Workers: 1, Async: true, Dt: 1,
		Schedule: coord.Schedule{TraceDispatch: func(tk coord.Task, _ coord.DispatchMeta) { order = append(order, tk) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(newLJState(f, 9), 1, nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(eng.polymers) {
		t.Fatalf("dispatched %d tasks, want %d", len(order), len(eng.polymers))
	}
	// The first dispatch is a maximal-order polymer containing the
	// reference monomer (priority distance zero).
	first := eng.polymers[order[0].Poly]
	hasRef := false
	for _, m := range first.Monomers {
		if m == eng.refMono {
			hasRef = true
		}
	}
	if !hasRef {
		t.Errorf("first dispatch %v does not contain reference monomer %d", first, eng.refMono)
	}
	if first.Order() != 3 {
		t.Errorf("first dispatch order %d, want 3 (largest fragments launch first)", first.Order())
	}
	// Distances are non-decreasing, and sizes non-increasing within
	// equal distance.
	g := eng.Graph()
	for i := 1; i < len(order); i++ {
		da, db := g.Dist[order[i-1].Poly], g.Dist[order[i].Poly]
		if da > db {
			t.Fatalf("dispatch %d: distance %.6f after %.6f", i, db, da)
		}
		if da == db && len(g.Members[order[i-1].Poly]) < len(g.Members[order[i].Poly]) {
			t.Fatalf("dispatch %d: size tie-break inverted at distance %.6f", i, da)
		}
	}
}

// Hierarchical dispatch (group coordinators, batching, stealing) is a
// scheduling change only: the trajectory must match the flat scheduler
// to floating-point accumulation noise.
func TestHierMatchesFlatTrajectory(t *testing.T) {
	eval := &potential.LennardJones{}
	run := func(opts Options) (*md.State, []StepStats) {
		f := ljFrag(t, 6, fragment.Options{DimerCutoff: 12, TrimerCutoff: 9})
		opts.Async = true
		opts.Dt = dtFs * chem.AtomicTimePerFs
		eng, err := New(f, eval, opts)
		if err != nil {
			t.Fatal(err)
		}
		state := newLJState(f, 7)
		stats, err := eng.Run(state, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		return state, stats
	}
	sf, statsF := run(Options{Workers: 4})
	sh, statsH := run(Options{Workers: 4, Schedule: coord.Schedule{Groups: 2, Batch: 3, Steal: true}})
	for i := range sf.Geom.Atoms {
		for k := 0; k < 3; k++ {
			if d := math.Abs(sf.Geom.Atoms[i].Pos[k] - sh.Geom.Atoms[i].Pos[k]); d > 1e-10 {
				t.Fatalf("flat/hier positions diverge at atom %d dim %d by %.2e", i, k, d)
			}
		}
	}
	for s := range statsF {
		if d := math.Abs(statsF[s].Etot - statsH[s].Etot); d > 1e-10 {
			t.Errorf("flat/hier Etot differ at step %d by %.2e", s, d)
		}
	}
}

// The group-coordinator and work-stealing paths must be clean under the
// race detector with many workers hammering the result channel.
func TestGroupSchedulingRace(t *testing.T) {
	f := ljFrag(t, 8, fragment.Options{DimerCutoff: 14, TrimerCutoff: 10})
	eng, err := New(f, &potential.LennardJones{}, Options{
		Workers: 8, Schedule: coord.Schedule{Groups: 4, Batch: 2, Steal: true},
		Async: true, Dt: 0.25 * chem.AtomicTimePerFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run(newLJState(f, 13), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	e0 := stats[0].Etot
	for _, st := range stats {
		if math.Abs(st.Etot-e0) > 1e-4 {
			t.Fatalf("energy drift %.2e under hierarchical scheduling", st.Etot-e0)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	f := ljFrag(t, 2, fragment.Options{})
	lj := &potential.LennardJones{}
	if _, err := New(f, lj, Options{}); err == nil {
		t.Fatal("expected error for missing dt")
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(f, lj, Options{Dt: dt}); err == nil {
			t.Errorf("expected error for time step %g", dt)
		}
	}
	if _, err := New(f, lj, Options{Dt: 1, Workers: -1}); err == nil {
		t.Fatal("expected error for negative workers")
	}
	if _, err := New(f, lj, Options{Dt: 1, Schedule: coord.Schedule{Groups: -2}}); err == nil {
		t.Fatal("expected error for negative groups")
	}
	if _, err := New(f, lj, Options{Dt: 1, Schedule: coord.Schedule{Batch: -1}}); err == nil {
		t.Fatal("expected error for negative batch")
	}
	eng, err := New(f, lj, Options{Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Opts.Workers < 1 {
		t.Errorf("default workers = %d, want runtime.GOMAXPROCS(0) ≥ 1", eng.Opts.Workers)
	}
	if _, err := eng.Run(md.NewState(f.Geom.Clone()), 0, nil); err == nil {
		t.Fatal("expected error for zero steps")
	}
}

// With gives an engine its own options over its receiver's topology:
// the task graph is the same object, the options are validated like
// New's, a change to what the topology was built from is refused, and
// the derived engine runs exactly as one built from scratch.
func TestWithSharesTopology(t *testing.T) {
	f := ljFrag(t, 3, fragment.Options{})
	lj := &potential.LennardJones{}
	eng, err := New(f, lj, Options{Workers: 1, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, Async: true, Dt: dtFs * chem.AtomicTimePerFs}
	w, err := eng.With(opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph() != eng.Graph() {
		t.Error("With rebuilt the task graph instead of sharing it")
	}
	if w.Opts.Workers != 2 || w.Opts.Dt != opts.Dt || eng.Opts.Workers != 1 {
		t.Errorf("options: derived %+v, receiver %+v", w.Opts, eng.Opts)
	}
	for name, bad := range map[string]Options{
		"embed on":         {Dt: 1, Embed: &fragment.EmbedOptions{}},
		"ref monomer":      {Dt: 1, RefMonomer: -1},
		"negative work":    {Dt: 1, Workers: -1},
		"no time step":     {},
		"negative groups":  {Dt: 1, Schedule: coord.Schedule{Groups: -1}},
		"negative batch":   {Dt: 1, Schedule: coord.Schedule{Batch: -1}},
		"negative retries": {Dt: 1, Schedule: coord.Schedule{MaxRetries: -1}},
	} {
		if _, err := eng.With(bad); err == nil {
			t.Errorf("%s: With accepted %+v", name, bad)
		}
	}
	fresh, err := New(f, lj, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(newLJState(f, 4), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Run(newLJState(f, 4), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i].Etot-want[i].Etot) > 1e-10 {
			t.Errorf("step %d: Etot %.12f through With, %.12f from New", i, got[i].Etot, want[i].Etot)
		}
	}
}

// ColdWarm on the LJ surrogate checks the experiment's plumbing: one
// table row per step, no SCF iterations from a stateless evaluator, and
// a warm run that retraces the cold one exactly.
func TestColdWarm(t *testing.T) {
	f := ljFrag(t, 2, fragment.Options{})
	opts := Options{Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs}
	var out strings.Builder
	if err := ColdWarm(&out, f, &potential.LennardJones{}, opts, 4, 120, 17); err != nil {
		t.Fatal(err)
	}
	var steps []int
	for _, l := range strings.Split(out.String(), "\n") {
		fs := strings.Fields(l)
		if len(fs) != 6 {
			continue
		}
		step, err := strconv.Atoi(fs[0])
		if err != nil {
			continue
		}
		steps = append(steps, step)
		if fs[1] != "0" || fs[2] != "0" {
			t.Errorf("step %d: SCF iterations cold %s warm %s, want 0 for LJ", step, fs[1], fs[2])
		}
		if d, err := strconv.ParseFloat(fs[5], 64); err != nil || d != 0 {
			t.Errorf("step %d: |ΔEpot| %s, want 0", step, fs[5])
		}
	}
	if len(steps) != 4 || steps[0] != 0 || steps[3] != 3 {
		t.Fatalf("table rows for steps %v, want 0..3:\n%s", steps, out.String())
	}
	if err := ColdWarm(io.Discard, f, &potential.LennardJones{}, Options{}, 4, 120, 17); err == nil {
		t.Error("ColdWarm accepted a zero time step")
	}
}
