// Package sched implements the paper's asynchronous time-step AIMD
// engine (innovation iii, §V-F) as the in-process live backend of the
// shared scheduling core in internal/coord: the coordinator owns a
// priority queue of ready polymer tasks, dynamically distributes them —
// flat or through batched group coordinators with work stealing
// (DESIGN.md §6) — to evaluator goroutines, accumulates energies and
// gradients as results return, and integrates each monomer to the next
// time step the moment every polymer touching it has completed — no
// global synchronisation anywhere.
//
// Queue ordering follows the paper: polymers are prioritised by the
// minimum distance of their constituent monomers to a reference monomer
// (chosen at a system extremity), tie-broken by decreasing size so large
// fragments launch early and small ones fill trailing gaps.
//
// Fragments with severed bonds are deferred until the monomers owning
// their H-cap partner atoms have also advanced (the dependency list of
// §V-F), which fragment.TouchSet encodes.
//
// The same engine runs in synchronous mode (global barrier per step) for
// the paper's async-vs-sync comparisons (24 % / 40 % throughput gains).
// The identical policy drives internal/cluster's discrete-event machine
// simulation, so scheduling changes can be A/B'd at simulated
// Frontier/Perlmutter scale before they run a live trajectory.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Options configures the engine.
type Options struct {
	// Workers is the number of concurrent fragment evaluators
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// Async enables per-monomer time-step release; false inserts a
	// global barrier between steps.
	Async bool
	// Dt is the time step in atomic units.
	Dt float64
	// RefMonomer is the reference monomer for queue ordering. The zero
	// value, which every production caller passes, anchors monomer 0;
	// −1 picks the monomer farthest from the system centroid (the paper
	// chooses "an arbitrary fragment towards an extremity"), which is
	// what cluster.NewWorkload always uses.
	RefMonomer int

	// Schedule holds the scheduling-policy knobs — hierarchy, retry
	// budget, straggler copies, dispatch trace — shared with the
	// cluster simulator (DESIGN.md §6).
	coord.Schedule

	// WarmStart enables incremental evaluation across time steps: each
	// polymer's converged electronic state is cached and injected as
	// the SCF initial guess of its next evaluation. Exact — the SCF
	// still converges to the same thresholds; only iteration counts
	// (and wall time) drop. Requires a fragment.StatefulEvaluator to
	// have any effect; the LJ surrogate passes through.
	WarmStart bool
	// Cache optionally carries a warm-start cache across Run calls or
	// in from a serial fragment.ComputeWithCache; nil allocates one
	// internally when WarmStart is set. An explicit Cache implies warm
	// starting whatever WarmStart says.
	Cache *warmstart.Cache

	// Embed engages electrostatically embedded MBE (EE-MBE): every
	// step first derives monomer charges (1 + Embed.SCC rounds of
	// per-monomer charge tasks — a real barrier in the task graph),
	// then evaluates every task's polymer in the resulting field, with
	// field forces folded back onto the parent atoms. Requires the evaluator
	// to implement fragment.EmbeddedEvaluator and fragment.ChargeSource.
	// Embed.SCCTol is ignored here (the engine's task graph is static,
	// so all SCC rounds always run); use the serial
	// fragment.ComputeEmbedded for tolerance-based early stopping.
	// A periodic fragmentation is refused (fragment.CheckEmbeddable).
	// nil = vacuum MBE.
	Embed *fragment.EmbedOptions

	// Injector, when non-nil, injects seeded deterministic failures —
	// task-level failures, worker deaths, slow-worker stragglers — for
	// chaos testing. See internal/resilience. Ignored when Exec is set
	// (network chaos is injected at the transport: killed worker
	// processes and severed connections).
	Injector *resilience.FailureInjector

	// Exec, when non-nil, replaces the in-process evaluator pool with
	// an external Executor (the network backend, internal/netcoord):
	// every dispatched attempt is handed to Exec.Execute and its
	// outcome read back from Exec.Results(), while all coordination —
	// scheduling policy, integration, gradient folding, retries,
	// eviction, speculation — stays in this engine. Workers must be 0
	// (adopting Exec.Workers()) or equal it. Evaluation happens on the
	// remote workers, so Eval may be nil and WarmStart/Cache and
	// Injector are ignored (remote workers own their caches; see the
	// fragmd worker flags).
	Exec Executor
}

// StepStats reports a completed time step.
type StepStats struct {
	Step     int
	Epot     float64
	Ekin     float64
	Etot     float64
	Wall     time.Duration // first dispatch → last result of this step
	NPolymer int           // tasks per step: the polymers whose MBE coefficient is non-zero
	// SCFIters totals SCF iterations across this step's polymer and
	// charge-task evaluations (0 for stateless evaluators).
	SCFIters int
	// Skipped is always 0: every task is evaluated at every step.
	// The field is kept for the benchmark harness, which reads it.
	Skipped int
	// Drift is the total-energy drift E_tot(t) − E_tot(0) of this
	// trajectory segment (Ha) — the NVE conservation diagnostic
	// surfaced per step so drivers can print and gate it.
	Drift float64
}

// ColdWarm runs the same trajectory of f cold and warm-started, from
// velocities sampled at tempK from seed, after an untimed cold step
// that absorbs first-use costs (pooled pack buffers, cold caches), and
// writes the per-step SCF iterations, wall clock and |ΔEpot|, with
// totals and percent saved, to w. opts' WarmStart and Cache are set per
// run. It backs fragmd -mode bench.
func ColdWarm(w io.Writer, f *fragment.Fragmentation, eval fragment.Evaluator, opts Options, steps int, tempK float64, seed int64) error {
	run := func(warm bool, n int) ([]StepStats, error) {
		opts.WarmStart, opts.Cache = warm, nil
		eng, err := New(f, eval, opts)
		if err != nil {
			return nil, err
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(tempK, rand.New(rand.NewSource(seed)))
		return eng.Run(state, n, nil)
	}
	if _, err := run(false, 1); err != nil {
		return err
	}
	cold, err := run(false, steps)
	if err != nil {
		return err
	}
	warm, err := run(true, steps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %14s %14s %12s %12s %14s\n",
		"step", "cold SCF-iter", "warm SCF-iter", "cold wall", "warm wall", "|ΔEpot| (Ha)")
	var coldIters, warmIters int
	var coldWall, warmWall float64
	for i := range cold {
		coldIters += cold[i].SCFIters
		warmIters += warm[i].SCFIters
		coldWall += cold[i].Wall.Seconds()
		warmWall += warm[i].Wall.Seconds()
		fmt.Fprintf(w, "%6d %14d %14d %11.3fs %11.3fs %14.2e\n",
			cold[i].Step, cold[i].SCFIters, warm[i].SCFIters,
			cold[i].Wall.Seconds(), warm[i].Wall.Seconds(),
			math.Abs(cold[i].Epot-warm[i].Epot))
	}
	fmt.Fprintf(w, "totals %14d %14d %11.3fs %11.3fs\n",
		coldIters, warmIters, coldWall, warmWall)
	if coldIters > 0 {
		fmt.Fprintf(w, "  SCF iterations saved: %.0f%%   wall saved: %.0f%%\n",
			100*(1-float64(warmIters)/float64(coldIters)),
			100*(1-warmWall/math.Max(coldWall, 1e-12)))
	}
	return nil
}

// Engine drives asynchronous MBE AIMD.
type Engine struct {
	Frag *fragment.Fragmentation
	Eval fragment.Evaluator
	Opts Options

	*topology
	cache    *warmstart.Cache // nil unless WarmStart or Cache configured
	runStats coord.RunStats   // resilience events of the last Run
}

// topology is what an engine precomputes from the fragmentation alone:
// read-only during a run, so engines made by With share it. Its tasks
// are the polymers of the MBE term graph whose coefficient is non-zero,
// in Terms index order; a task index (coord.Task.Poly) is a position in
// polymers, and term maps it back to the Terms index.
type topology struct {
	terms     *fragment.Terms      // the MBE term graph
	term      []int                // per task: its polymer's Terms index (non-zero Coeff)
	polymers  []fragment.Polymer   // per task: its polymer
	templates []*fragment.Template // per task: extraction template, built once
	keys      []string             // per task: Polymer.Key, formatted once
	graph     *coord.Graph
	refMono   int

	atomMono  []int                // atom → owning monomer
	atomSlot  []int                // atom → index within its monomer
	monoTouch [][]int32            // EE-MBE only: touch set of each monomer alone (its charge task)
	monoTpl   []*fragment.Template // EE-MBE only: template of each monomer alone (its charge task)
	sPair     []float64            // EE-MBE only: pair-inclusion weights (terms.PairInclusion)
}

// Cache returns the engine's warm-start cache (nil when incremental
// evaluation is disabled), e.g. to inspect hit statistics or to
// hand the warmed states to a later engine.
func (e *Engine) Cache() *warmstart.Cache { return e.cache }

// Graph returns the engine's scheduling task graph (the shared
// internal/coord representation).
func (e *Engine) Graph() *coord.Graph { return e.graph }

// RunStats reports the resilience events — retries, evictions,
// speculative dispatches, dropped duplicates — of the most recent Run.
func (e *Engine) RunStats() coord.RunStats { return e.runStats }

// result is one attempt's outcome on the coordinator: the ExecResult
// plus the fold bookkeeping that never leaves it.
type result struct {
	ExecResult
	ex      *fragment.Extracted
	field   *fragment.Field // EE-MBE phase-2 field the field-site gradient folds through
	seconds float64         // extraction + evaluation time on the worker (0 = not measured)
}

// New creates an engine and precomputes the polymer lists, dependency
// sets and queue priorities from the initial geometry (the paper's
// "pre-formed list" strategy for large systems).
func New(f *fragment.Fragmentation, eval fragment.Evaluator, opts Options) (*Engine, error) {
	e, err := (&Engine{Frag: f, Eval: eval, Opts: opts}).With(opts)
	if err != nil {
		return nil, err
	}
	if e.topology, err = newTopology(f, e.Opts); err != nil {
		return nil, err
	}
	return e, nil
}

// With returns an engine for opts that shares e's topology — polymers,
// extraction templates, keys, coefficients, touch sets and task graph —
// so a chunked trajectory builds it once and gives each chunk its own
// options. opts is validated as New validates it, and may not change
// what the topology was built from: Embed on or off, or RefMonomer.
func (e *Engine) With(opts Options) (*Engine, error) {
	if (opts.Embed != nil) != (e.Opts.Embed != nil) || opts.RefMonomer != e.Opts.RefMonomer {
		return nil, errors.New("sched: options change the engine topology (Embed on/off or RefMonomer); build a new engine")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("sched: worker count %d must not be negative", opts.Workers)
	}
	if err := opts.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if opts.Exec != nil {
		// External execution: the engine coordinates, the executor's
		// worker slots evaluate. Worker count is the executor's.
		if opts.Workers == 0 {
			opts.Workers = opts.Exec.Workers()
		}
		if opts.Workers != opts.Exec.Workers() {
			return nil, fmt.Errorf("sched: worker count %d differs from executor's %d slots",
				opts.Workers, opts.Exec.Workers())
		}
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if !(opts.Dt > 0) || math.IsInf(opts.Dt, 1) {
		return nil, errors.New("sched: time step must be positive and finite")
	}
	if opts.Embed != nil {
		if err := opts.Embed.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		if err := e.Frag.CheckEmbeddable(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		// With an external executor the remote workers own evaluation
		// (their evaluators are checked worker-side); locally the
		// evaluator must support the embedded primitives.
		if opts.Exec == nil {
			if _, ok := e.Eval.(fragment.EmbeddedEvaluator); !ok {
				return nil, fmt.Errorf("sched: evaluator %T cannot evaluate embedded fragments", e.Eval)
			}
			if _, ok := e.Eval.(fragment.ChargeSource); !ok {
				return nil, fmt.Errorf("sched: evaluator %T cannot derive monomer charges", e.Eval)
			}
		}
	}
	c := &Engine{Frag: e.Frag, Eval: e.Eval, Opts: opts, topology: e.topology}
	if opts.Exec == nil {
		if opts.Cache != nil {
			c.cache = opts.Cache
		} else if opts.WarmStart {
			c.cache = warmstart.NewCache()
		}
	}
	return c, nil
}

// newTopology builds f's engine topology for the validated opts. A
// polymer whose MBE coefficient is 0 would only ever add ±0 to the
// energy and the gradient, so it is no task: it is never extracted,
// evaluated or waited for.
func newTopology(f *fragment.Fragmentation, opts Options) (*topology, error) {
	e := &topology{terms: f.Terms()}
	for i, p := range e.terms.All() {
		if e.terms.Coeff(i) != 0 {
			e.term = append(e.term, i)
			e.polymers = append(e.polymers, p)
		}
	}
	e.templates = make([]*fragment.Template, len(e.polymers))
	e.keys = make([]string, len(e.polymers))
	members := make([][]int32, len(e.polymers))
	touch := make([][]int32, len(e.polymers))
	setup := func(a int) [3]float64 { return f.Geom.Atoms[a].Pos }
	for pi, p := range e.polymers {
		// Like the polymer list, each polymer's member images come from
		// the set-up geometry and hold for every step.
		e.templates[pi] = f.NewTemplate(p, f.MemberImages(p, setup))
		e.keys[pi] = p.Key()
		ms := int32s(p.Monomers)
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		members[pi] = ms
		touch[pi] = int32s(f.TouchSet(p))
	}
	e.atomMono = f.AtomMonomer()
	e.atomSlot = make([]int, f.Geom.N())
	for m := range f.Monomers {
		for i, a := range f.Monomers[m].Atoms {
			e.atomSlot[a] = i
		}
	}
	if opts.Embed != nil {
		e.monoTouch = make([][]int32, len(f.Monomers))
		e.monoTpl = make([]*fragment.Template, len(f.Monomers))
		for m := range f.Monomers {
			p := fragment.Polymer{Monomers: []int{m}}
			e.monoTouch[m] = int32s(f.TouchSet(p))
			e.monoTpl[m] = f.NewTemplate(p, nil)
		}
		e.sPair = e.terms.PairInclusion()
	}

	// Queue priorities anchored at the reference monomer (shared policy
	// computation, DESIGN.md §6).
	var dist []float64
	e.refMono, dist = coord.Priorities(len(f.Monomers), members, f.Centroid,
		f.Geom.Centroid(), opts.RefMonomer)
	var err error
	e.graph, err = coord.NewGraph(len(f.Monomers), members, touch, dist)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return e, nil
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// monoState tracks one monomer through the asynchronous trajectory: pos
// holds the flat positions of its atoms at step. One step is all the
// coordinator needs — a polymer of step t is dispatched only while every
// monomer it touches sits at t, and such a monomer cannot advance until
// that polymer completes. Each slice is created once and never written
// again, so workers may read it after the monomer has advanced past it.
type monoState struct {
	step int
	pos  []float64
}

// liveTask is one attempt handed to an in-process worker (or, through
// the same bookkeeping, to an Executor slot).
type liveTask struct {
	task    coord.Task
	field   *fragment.Field // embedding field (nil in vacuum / round 0)
	charge  bool            // phase-1 charge task
	attempt int
	pos     int // first of the task's touch-set position slices in handoff.pos
}

// handoff is the message carrying one run to a worker and its results
// back. pos holds the step-t position slice of every monomer in each
// task's touch set (Engine.taskFragment), in touch-set order, captured
// on the coordinator at dispatch; out holds the run's results in task
// order. The coordinator reuses a message for the worker's later runs
// once it has awaited the last result.
type handoff struct {
	tasks []liveTask
	pos   [][]float64
	out   []result
}

// taskFragment returns, for the fragment a task evaluates — its
// polymer, or for an EE-MBE charge task its monomer alone — the
// monomers whose positions its geometry is built from and its
// extraction template.
func (e *Engine) taskFragment(t coord.Task, charge bool) ([]int32, *fragment.Template) {
	if charge {
		return e.monoTouch[t.Poly], e.monoTpl[t.Poly]
	}
	return e.graph.Touch[t.Poly], e.templates[t.Poly]
}

// extractor builds task geometries from captured position slices; each
// goroutine that extracts owns one.
type extractor struct {
	e    *Engine
	mono [][]float64 // monomer → positions, set only during one extract
	at   func(atom int) [3]float64
}

func (e *Engine) newExtractor() *extractor {
	x := &extractor{e: e, mono: make([][]float64, len(e.Frag.Monomers))}
	x.at = func(a int) [3]float64 {
		p, i := x.mono[e.atomMono[a]], 3*e.atomSlot[a]
		return [3]float64{p[i], p[i+1], p[i+2]}
	}
	return x
}

// extract builds t's standalone geometry from pos, whose leading
// entries are the positions of t's touch set.
func (x *extractor) extract(t coord.Task, charge bool, pos [][]float64) *fragment.Extracted {
	touch, tpl := x.e.taskFragment(t, charge)
	for k, m := range touch {
		x.mono[m] = pos[k]
	}
	ex := tpl.Extract(x.at)
	for _, m := range touch {
		x.mono[m] = nil
	}
	return ex
}

// evaluate runs one attempt on worker w into r, a zero result in its
// hand-off message: extraction from the captured positions, then Attempt
// on the engine's evaluator.
func (e *Engine) evaluate(r *result, w int, x *extractor, tw liveTask, pos [][]float64) {
	start := time.Now()
	r.ex, r.field = x.extract(tw.task, tw.charge, pos), tw.field
	r.ExecResult = Attempt(e.Eval, e.cache, e.request(tw, r.ex))
	r.Worker = w
	r.seconds = time.Since(start).Seconds()
}

// request builds the ExecRequest of attempt tw on its extracted
// fragment, the same for in-process workers and an Executor.
func (e *Engine) request(tw liveTask, ex *fragment.Extracted) ExecRequest {
	req := ExecRequest{Task: tw.task, Attempt: tw.attempt, Charge: tw.charge,
		Embed: e.Opts.Embed != nil, Geom: ex.Geom, Field: tw.field.PC()}
	if !tw.charge {
		req.Key = e.keys[tw.task.Poly]
	}
	return req
}

// Run makes n force evaluations per polymer, one per local step, and
// integrates through them. From a state without forces at its positions
// (md.State.ForcesHere is nil) local step 0 is the state itself,
// evaluated. From a state that has them — left by the previous run, or
// by a checkpoint — the run continues: it kicks and drifts from those
// forces first, so local step 0 is the step after the state's, and a
// trajectory cut into runs evaluates each step once. The observer fires
// once per completed step with assembled energies, streamed in step
// order the moment each step finalizes — during the run, not after it —
// so drivers can report live progress. On success the state holds the
// final step's positions, velocities and forces. Returns per-step
// statistics.
func (e *Engine) Run(state *md.State, n int, obs func(StepStats)) ([]StepStats, error) {
	return e.RunContext(context.Background(), state, n, obs)
}

// RunContext is Run under a caller-owned context: cancelling ctx aborts
// the run between monomer advances with ctx's error, leaving state
// mid-trajectory (callers that need a consistent snapshot should resume
// from their last checkpoint, not from the abandoned state). A deadline
// on ctx bounds the whole run: a worker that never reports ends it with
// a "run abandoned" error instead of wedging it (the barrier-wedge fix).
func (e *Engine) RunContext(ctx context.Context, state *md.State, n int, obs func(StepStats)) ([]StepStats, error) {
	if n <= 0 {
		return nil, errors.New("sched: need at least one step")
	}
	f := e.Frag
	nm := len(f.Monomers)
	npoly := len(e.polymers)
	dt := e.Opts.Dt

	// Forces carried at the state's positions start the run with the
	// first half-kick and drift integrateMono makes after a step — the
	// same expressions, so a trajectory cut here keeps its bits. A failed
	// run leaves the state without forces.
	carried := state.ForcesHere()
	state.Forces = nil
	monos := make([]monoState, nm)
	for m := range monos {
		atoms := f.Monomers[m].Atoms
		p0 := make([]float64, 3*len(atoms))
		for i, a := range atoms {
			for k := 0; k < 3; k++ {
				p0[3*i+k] = state.Geom.Atoms[a].Pos[k]
				if carried != nil {
					state.Vel[a][k] -= carried.Grad[3*a+k] / (2 * state.Masses[a]) * dt
					p0[3*i+k] = p0[3*i+k] + state.Vel[a][k]*dt
				}
			}
		}
		monos[m].pos = p0
	}
	positionsOf := func(m, step int) []float64 {
		if monos[m].step != step {
			panic(fmt.Sprintf("sched: monomer %d has no positions for step %d", m, step))
		}
		return monos[m].pos
	}

	// Per-step accumulators, indexed by step; an entry is nil until first
	// used and again once the step is done with it.
	gradStep := make([][]float64, n)
	epotStep := make([]float64, n)
	ekinStep := make([]float64, n)
	scfIterStep := make([]int, n)
	firstDispatch := make([]time.Time, n)
	stepGrad := func(t int) []float64 {
		if gradStep[t] == nil {
			gradStep[t] = make([]float64, 3*f.Geom.N())
		}
		return gradStep[t]
	}

	// EE-MBE: rounds of per-monomer charge tasks precede each step's
	// polymer phase; chargeQ[step][round] holds the folded (and damped)
	// parent-atom charges, complete once the round's barrier passes.
	chargeRounds := 0
	if e.Opts.Embed != nil {
		chargeRounds = e.Opts.Embed.Rounds()
	}
	chargeQ := make([][][]float64, n)
	chargeAt := func(step, round int) []float64 {
		if chargeQ[step] == nil {
			rs := make([][]float64, chargeRounds)
			for r := range rs {
				rs[r] = make([]float64, f.Geom.N())
			}
			chargeQ[step] = rs
		}
		return chargeQ[step][round]
	}
	monoAdvanced := make([]int, n)  // monomers past step t (chargeQ pruning)
	residualDone := make([]bool, n) // far-pair correction folded per step
	// Embedding fields read *every* monomer's step-t positions — unlike
	// vacuum extraction, which only reads a polymer's touch set — so
	// they cannot go through the per-monomer positions: a monomer that
	// advanced early has replaced its step-t positions while
	// unrelated polymers of step t are still dispatching. Instead, the
	// whole step's positions are snapshotted once at the charge
	// barrier: the first consumer runs strictly after round 0 of the
	// step completes (every monomer at step t, nothing advanced past
	// it), which is exactly when every monomer holds step t.
	stepPos := make([][]float64, n)
	fieldPosAt := func(step int) func(atom int) [3]float64 {
		snap := stepPos[step]
		if snap == nil {
			snap = make([]float64, 3*f.Geom.N())
			for m := range f.Monomers {
				p := positionsOf(m, step)
				for i, a := range f.Monomers[m].Atoms {
					copy(snap[3*a:3*a+3], p[3*i:3*i+3])
				}
			}
			stepPos[step] = snap
		}
		return func(atom int) [3]float64 {
			return [3]float64{snap[3*atom], snap[3*atom+1], snap[3*atom+2]}
		}
	}

	pol, err := coord.NewPolicy(e.graph, coord.Options{
		Schedule: e.Opts.Schedule, Steps: n, Workers: e.Opts.Workers, Sync: !e.Opts.Async,
		ChargeRounds: chargeRounds,
	})
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}

	// Task plumbing. The dispatches of one sweep collect in runs[w] and
	// reach worker w as one hand-off when Await is next called (dirty
	// lists the workers with one pending); the worker extracts and
	// evaluates each task from the positions captured at dispatch and
	// returns the run's results in the same message. A worker holds at
	// most two runs (coord.RunContext), so each worker has at most two
	// messages on either channel, and no send blocks. A message goes on
	// its worker's free list once its last result has been awaited and
	// carries the worker's later runs; a dead worker's messages are
	// dropped.
	inj := e.Opts.Injector
	exec := e.Opts.Exec
	runs := make([]*handoff, e.Opts.Workers)
	free := make([][]*handoff, e.Opts.Workers)
	var dirty []int
	taskCh := make([]chan *handoff, e.Opts.Workers)
	resCh := make(chan *handoff, 2*e.Opts.Workers)
	var inbox *handoff // the message whose results are being awaited
	var next int       // its next result
	for w := 0; w < e.Opts.Workers && exec == nil; w++ {
		taskCh[w] = make(chan *handoff, 2)
		go func(w int) {
			x := e.newExtractor()
			completed := 0
			for h := range taskCh[w] {
				for i, tw := range h.tasks {
					if inj.WorkerDies(w, completed) {
						// The worker dies starting this attempt: it and
						// every attempt behind it in the run are lost, and
						// the last report carries the death, so the
						// coordinator evicts the worker and reclaims any
						// run still queued for it.
						for _, lost := range h.tasks[i:] {
							h.out = append(h.out, result{ExecResult: ExecResult{Worker: w, Task: lost.task, Err: resilience.ErrWorkerDeath}})
						}
						h.out[len(h.out)-1].WorkerDown = true
						resCh <- h
						return
					}
					if inj.FailTask(tw.task.Poly, tw.task.Step, tw.attempt) {
						h.out = append(h.out, result{ExecResult: ExecResult{Worker: w, Task: tw.task, Err: resilience.ErrInjected}})
						continue
					}
					h.out = append(h.out, result{})
					r := &h.out[len(h.out)-1]
					e.evaluate(r, w, x, tw, h.pos[tw.pos:])
					if f := inj.Straggle(w, tw.task.Poly, tw.task.Step); f > 1 {
						time.Sleep(time.Duration(r.seconds * (f - 1) * float64(time.Second)))
					}
					completed++
				}
				resCh <- h
			}
		}(w)
	}
	defer func() {
		for _, ch := range taskCh {
			if ch != nil {
				close(ch)
			}
		}
	}()
	// recycle empties h for worker w's next run.
	recycle := func(w int, h *handoff) {
		h.tasks, h.pos, h.out = h.tasks[:0], h.pos[:0], h.out[:0]
		free[w] = append(free[w], h)
	}

	// With an external executor the coordinator extracts, ships only the
	// standalone geometry and field, and keeps each slot's fold
	// bookkeeping in pending until its result returns. Executors report
	// no cost, so the scheduling core hands a slot one attempt at a time.
	var pending map[int]result
	var coordX *extractor
	if exec != nil {
		pending = make(map[int]result, e.Opts.Workers)
		coordX = e.newExtractor()
	}
	flush := func() {
		for _, w := range dirty {
			h := runs[w]
			runs[w] = nil
			if exec == nil {
				taskCh[w] <- h
				continue
			}
			if len(h.tasks) != 1 {
				panic(fmt.Sprintf("sched: executor slot %d handed %d attempts at once", w, len(h.tasks)))
			}
			tw := h.tasks[0]
			ex := coordX.extract(tw.task, tw.charge, h.pos[tw.pos:])
			pending[w] = result{ExecResult: ExecResult{Task: tw.task}, ex: ex, field: tw.field}
			exec.Execute(w, e.request(tw, ex))
			recycle(w, h)
		}
		dirty = dirty[:0]
	}
	// recv blocks for the next attempt outcome from the configured
	// substrate, rejoining executor results with their pending fold
	// bookkeeping. An in-process result is not copied: recv returns a
	// pointer into inbox.out. That is safe while AwaitFn uses it, even
	// once the message is recycled: recycling only truncates the slices,
	// and nothing appends to a recycled message's out before the next
	// flush hands it to a worker, which happens in a later AwaitFn call.
	var execRes result // the executor result recv returned last
	recv := func(ctx context.Context) (*result, error) {
		if exec == nil {
			for inbox == nil {
				select {
				case inbox = <-resCh:
					next = 0
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			r := &inbox.out[next]
			next++
			if next == len(inbox.out) {
				if !r.WorkerDown {
					recycle(r.Worker, inbox)
				}
				inbox = nil
			}
			return r, nil
		}
		select {
		case xr := <-exec.Results():
			r, ok := pending[xr.Worker]
			if !ok {
				return nil, fmt.Errorf("sched: executor result for idle worker slot %d", xr.Worker)
			}
			if xr.Task != r.Task {
				return nil, fmt.Errorf("sched: executor result for task %v on slot %d running %v",
					xr.Task, xr.Worker, r.Task)
			}
			delete(pending, xr.Worker)
			r.ExecResult = xr
			execRes = r
			return &execRes, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	backend := &coord.BackendFuncs{
		NumWorkers: e.Opts.Workers,
		DispatchFn: func(w int, t coord.Task, m coord.DispatchMeta) {
			if firstDispatch[t.Step].IsZero() {
				firstDispatch[t.Step] = time.Now()
			}
			step := int(t.Step)
			tw := liveTask{task: t, attempt: m.Attempt, charge: int(t.Phase) < chargeRounds}
			switch {
			case tw.charge && t.Phase > 0:
				// A later-round charge task sees the previous round's
				// charges as its field.
				p := fragment.Polymer{Monomers: []int{int(t.Poly)}}
				tw.field = f.FieldFor(p, chargeAt(step, int(t.Phase)-1), fieldPosAt(step))
			case !tw.charge && chargeRounds > 0:
				tw.field = f.FieldFor(e.polymers[t.Poly], chargeAt(step, chargeRounds-1), fieldPosAt(step))
				if !residualDone[step] {
					// First polymer dispatch of the step: charges are
					// final and every monomer has step positions, so
					// fold in the far-pair residual correction once.
					residualDone[step] = true
					epotStep[step] += f.PairResidual(e.sPair, chargeAt(step, chargeRounds-1),
						fieldPosAt(step), stepGrad(step))
				}
			}
			h := runs[w]
			if h == nil {
				if k := len(free[w]); k > 0 {
					h, free[w] = free[w][k-1], free[w][:k-1]
				} else {
					h = &handoff{}
				}
				runs[w] = h
				dirty = append(dirty, w)
			}
			tw.pos = len(h.pos)
			touch, _ := e.taskFragment(t, tw.charge)
			for _, mi := range touch {
				h.pos = append(h.pos, positionsOf(int(mi), step))
			}
			h.tasks = append(h.tasks, tw)
		},
		AwaitFn: func(ctx context.Context) (coord.Completion, error) {
			flush()
			r, err := recv(ctx)
			if err != nil {
				if ctx.Err() != nil {
					// The wedge escape: a worker that will never report
					// (a hung evaluator, a partitioned remote) no longer
					// blocks the run forever.
					return coord.Completion{}, fmt.Errorf("sched: run abandoned awaiting results: %w", err)
				}
				return coord.Completion{}, err
			}
			if r.Err != nil {
				// A failed attempt, not a failed run: the coordinator
				// retries it against the budget or aborts with this
				// error attached. Charge tasks carry a monomer index in
				// Poly, not a polymer index — name them accordingly.
				var desc string
				if int(r.Task.Phase) < chargeRounds {
					desc = fmt.Sprintf("charge task monomer %d round %d", r.Task.Poly, r.Task.Phase)
				} else {
					desc = fmt.Sprintf("polymer %s", e.keys[r.Task.Poly])
				}
				return coord.Completion{Worker: r.Worker, Task: r.Task, WorkerDown: r.WorkerDown,
					Err: fmt.Errorf("sched: %s step %d: %w", desc, r.Task.Step, r.Err)}, nil
			}
			done := coord.Completion{Worker: r.Worker, Task: r.Task, Seconds: r.seconds}
			if pol.Completed(r.Task) {
				// The losing copy of a speculated task: its twin's
				// payload is already folded in; drop this one.
				return done, nil
			}
			t := int(r.Task.Step)
			scfIterStep[t] += r.Iters
			if r.Charges != nil {
				// Phase-1 payload: fold the fragment's charges (caps
				// onto inner atoms) into this round's parent array,
				// damping against the previous round (the serial
				// MonomerCharges recipe, barrier-safe because every
				// write touches only this monomer's atoms).
				round := int(r.Task.Phase)
				buf := make([]float64, f.Geom.N())
				r.ex.FoldCharges(r.Charges, buf)
				dst := chargeAt(t, round)
				damp := 0.0
				if round > 0 {
					damp = e.Opts.Embed.Damping
				}
				for _, a := range f.Monomers[r.Task.Poly].Atoms {
					v := buf[a]
					if damp > 0 {
						v = (1-damp)*v + damp*chargeQ[t][round-1][a]
					}
					dst[a] = v
				}
				return done, nil
			}
			c := e.terms.Coeff(e.term[r.Task.Poly])
			epotStep[t] += c * r.E
			r.ex.FoldGradient(r.Grad, c, stepGrad(t))
			r.field.FoldGradient(r.FieldGrad, c, stepGrad(t))
			return done, nil
		},
	}

	// Steps finalize strictly in order (a monomer advances past step
	// t+1 only after advancing past t), so completed StepStats stream
	// to the observer while later steps are still in flight — live
	// progress for long trajectories, essential when the evaluations
	// run on remote workers.
	var stats []StepStats
	var e0 float64
	nextFinal := 0
	finalize := func() {
		for ; nextFinal < n && monoAdvanced[nextFinal] == nm; nextFinal++ {
			t := nextFinal
			st := StepStats{
				Step: t, Epot: epotStep[t], Ekin: ekinStep[t],
				Etot: epotStep[t] + ekinStep[t], NPolymer: npoly,
				SCFIters: scfIterStep[t],
			}
			if t == 0 {
				e0 = st.Etot
			}
			st.Drift = st.Etot - e0
			// A step finalizes inside the Completion of its last result:
			// every monomer is touched by some task of the step
			// (coord.NewGraph checks it) and advances only once the last
			// task touching it has completed.
			if !firstDispatch[t].IsZero() {
				st.Wall = time.Since(firstDispatch[t])
			}
			stats = append(stats, st)
			if obs != nil {
				obs(st)
			}
		}
	}

	// integrate advances monomer m through step t the moment its last
	// polymer result lands (the policy's per-monomer release); the
	// wrapper below streams every step the advance finalized.
	integrateMono := func(mi, step int32) {
		m, t := int(mi), int(step)
		g := stepGrad(t)
		monoAdvanced[t]++
		if monoAdvanced[t] == nm {
			// Every polymer of step t has completed (that is why every
			// monomer advanced), so the step's charge field is dead, and
			// so is its gradient once this last monomer's kick reads g.
			// The final step's gradient is kept: it becomes state.Forces.
			chargeQ[t], stepPos[t] = nil, nil
			if t < n-1 {
				gradStep[t] = nil
			}
		}
		ms := &monos[m]
		atoms := f.Monomers[m].Atoms
		// Second half-kick completes v(t); velocities are already v(0) at
		// local step 0 unless the run continued from carried forces.
		if t > 0 || carried != nil {
			for _, a := range atoms {
				for k := 0; k < 3; k++ {
					state.Vel[a][k] -= g[3*a+k] / (2 * state.Masses[a]) * dt
				}
			}
		}
		var ke float64
		for _, a := range atoms {
			v := state.Vel[a]
			ke += 0.5 * state.Masses[a] * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		}
		ekinStep[t] += ke

		if t == n-1 {
			// Final step: write positions back, no further drift.
			p := ms.pos
			for i, a := range atoms {
				for k := 0; k < 3; k++ {
					state.Geom.Atoms[a].Pos[k] = p[3*i+k]
				}
			}
			return
		}
		// First half-kick + drift to t+1.
		p := ms.pos
		pNew := make([]float64, len(p))
		for i, a := range atoms {
			for k := 0; k < 3; k++ {
				state.Vel[a][k] -= g[3*a+k] / (2 * state.Masses[a]) * dt
				pNew[3*i+k] = p[3*i+k] + state.Vel[a][k]*dt
			}
		}
		// Every polymer reading this monomer's step-t positions has
		// completed (that is why it advanced), so replace them.
		ms.step, ms.pos = t+1, pNew
	}
	integrate := func(mi, step int32) {
		integrateMono(mi, step)
		finalize()
	}

	runStats, err := coord.RunContext(ctx, pol, backend, integrate)
	e.runStats = runStats
	if err != nil {
		return nil, err
	}
	if nextFinal != n {
		return nil, fmt.Errorf("sched: run completed with only %d of %d steps finalized", nextFinal, n)
	}
	at := make([]float64, 3*f.Geom.N())
	for i, a := range state.Geom.Atoms {
		copy(at[3*i:3*i+3], a.Pos[:])
	}
	state.Forces = &md.Forces{Epot: epotStep[n-1], Grad: gradStep[n-1], At: at}
	return stats, nil
}
