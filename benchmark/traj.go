package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	runtimemetrics "runtime/metrics"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// Sizing shared by every workload (ISSUE 12): nothing wider than two
// of anything, whatever the host offers.
const (
	workers     = 2
	dtFs        = 0.5
	temperature = 150.0
	atomsPerMol = 3

	// rimp2StepEstimate plans how many RI-MP2 steps fit into -seconds
	// (a cold step is ≈5.9 s and a warm one ≈5.4 s on the reference
	// box). It enters no metric: a step cannot be abandoned half-way
	// without leaving a five-second evaluation running, so the count is
	// fixed before the run starts.
	rimp2StepEstimate = 5.6
	ljWarmupSteps     = 5

	// boxSeed fixes the WaterBox jitter. The jitter decides how many
	// dimers and trimers fall inside the cutoffs — 7921 to 8031 polymers
	// per step on the 8×8×8 box and 326 to 375 on a 3×3×3 job over seeds
	// 1..10 — and runs at different seeds must do the same work to be
	// comparable; -seed still draws the velocities, job seeds and tenants.
	boxSeed = 1
)

//go:embed testdata/reference.json
var referenceJSON []byte

// reference holds the committed correctness anchors: energies are
// compared within a tolerance, never byte for byte.
type reference struct {
	Epot0TolHa float64 `json:"epot0_tol_ha"`
	Systems    map[string]struct {
		Epot0Ha      float64 `json:"epot0_ha"`
		DriftBoundHa float64 `json:"drift_bound_ha"`
	} `json:"systems"`
	LJBoxDriftBoundHa float64 `json:"lj_box_drift_bound_ha"`
	LJJobDriftBoundHa float64 `json:"lj_job_drift_bound_ha"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return &ref, nil
}

// sizing is the part of a workload's shape the smoke test shrinks; the
// real benchmark always runs fullSize.
type sizing struct {
	waters    int // molecules in the RI-MP2 cluster
	maxOrder  int // MBE order of the RI-MP2 cluster
	box       int // edge of the ljbox8-dispatch box, in molecules
	setupReps int // set-up repetitions behind the setup_s median
	maxTraced int // cap on traced steps/jobs: every LJ polymer evaluation is a span

	// Fixed operation counts; zero fills -seconds instead.
	rimp2Steps, ljSteps, jobs int
}

var fullSize = sizing{waters: 3, maxOrder: 3, box: 8, setupReps: 3, maxTraced: 100}

// config is one invocation's input.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	size     sizing
	workDir  string // this process's scratch directory inside the checkout, removed on exit
	traceDir string // where span files go; a later traced run of the same workload overwrites
}

// plainShare is the part of -seconds the untraced run gets: a traced
// invocation splits the time between the untraced and the traced run.
func (c config) plainShare() float64 {
	if c.trace {
		return 0.5
	}
	return 1
}

// trajWorkload selects one of the three trajectory workloads.
type trajWorkload struct {
	name  string
	rimp2 bool // RI-MP2 on the water cluster; otherwise LJ on the periodic box
	warm  bool
}

// trajSystem is a trajectory workload after set-up.
type trajSystem struct {
	frag       *fragment.Fragmentation
	eval       fragment.StatefulEvaluator
	opts       sched.Options
	eng        *sched.Engine
	state      *md.State // initial state; every run starts from a clone
	epot0      float64   // expected step-0 potential energy
	epot0Tol   float64
	driftBound float64
	stepEst    float64 // seconds per step, for planning only
}

func (w trajWorkload) setup(cfg config) (*trajSystem, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	s := &trajSystem{opts: sched.Options{
		Workers: workers, Async: true, Dt: dtFs * chem.AtomicTimePerFs, WarmStart: w.warm,
	}}
	var g *molecule.Geometry
	var fopts fragment.Options
	if w.rimp2 {
		g = molecule.WaterCluster(cfg.size.waters)
		fopts = fragment.Options{MaxOrder: cfg.size.maxOrder}
		s.eval = &potential.RIMP2{Basis: "sto-3g"}
	} else {
		b := cfg.size.box
		g = molecule.WaterBox(b, b, b, boxSeed)
		fopts = fragment.Options{MaxOrder: 3, DimerCutoff: 10, TrimerCutoff: 8}
		s.eval = &potential.LennardJones{}
	}
	if s.frag, err = fragment.ByMolecule(g, atomsPerMol, 1, fopts); err != nil {
		return nil, err
	}
	if s.eng, err = sched.New(s.frag, s.eval, s.opts); err != nil {
		return nil, err
	}
	s.state = md.NewState(g.Clone())
	s.state.SampleVelocities(temperature, rand.New(rand.NewSource(cfg.seed)))

	if w.rimp2 {
		key := fmt.Sprintf("water%d-mbe%d", cfg.size.waters, cfg.size.maxOrder)
		sys, ok := ref.Systems[key]
		if !ok {
			return nil, fmt.Errorf("testdata/reference.json has no system %q", key)
		}
		s.epot0, s.epot0Tol, s.driftBound = sys.Epot0Ha, ref.Epot0TolHa, sys.DriftBoundHa
		s.stepEst = rimp2StepEstimate
		// Warm-up: one monomer and one dimer, so the GEMM tuner has
		// seen their shapes before the first timed step.
		terms := s.frag.Terms()
		for _, p := range []fragment.Polymer{terms.Monomers[0], terms.Dimers[0]} {
			if _, _, err := s.eval.Evaluate(s.frag.Extract(p).Geom); err != nil {
				return nil, fmt.Errorf("warm-up polymer %s: %w", p.Key(), err)
			}
		}
		return s, nil
	}

	// The LJ reference is computed here rather than committed: the
	// serial MBE assembly is the oracle for the asynchronous engine.
	oracle, err := s.frag.Compute(s.eval)
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	s.epot0 = oracle.Energy
	s.epot0Tol = 1e-10 * math.Max(1, math.Abs(oracle.Energy))
	s.driftBound = ref.LJBoxDriftBoundHa
	warm, err := s.run(s.eng, ljWarmupSteps, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.stepEst = median(warm.intervals)
	return s, nil
}

// plan turns a share of -seconds into a step count and a time budget.
// An RI-MP2 run gets the number of steps that fit and no budget. An LJ
// run is cut off when its time is up — abandoning microsecond
// evaluations costs nothing — so its step count is only an upper limit.
func (w trajWorkload) plan(cfg config, s *trajSystem, share float64) (steps int, budget time.Duration) {
	fit := int(cfg.seconds * share / s.stepEst)
	switch {
	case w.rimp2 && cfg.size.rimp2Steps > 0:
		return cfg.size.rimp2Steps, 0
	case w.rimp2:
		return max(1, fit), 0
	case cfg.size.ljSteps > 0:
		return cfg.size.ljSteps, 0
	}
	return 2*fit + 10, time.Duration(cfg.seconds * share * float64(time.Second))
}

// trajRun is what the harness observed of one Engine.Run.
type trajRun struct {
	stats     []sched.StepStats
	intervals []float64 // seconds between consecutive observer callbacks; the first counts from Run's start
	wall      float64
	allocMB   float64 // heap allocated during the run
	gcFrac    float64 // GC share of the CPU time spent during the run
	flops     int64   // linalg GEMM FLOPs counted during the run
}

func (r *trajRun) polymers() int {
	n := 0
	for _, st := range r.stats {
		n += st.NPolymer
	}
	return n
}

func (r *trajRun) energies() []float64 {
	out := make([]float64, len(r.stats))
	for i, st := range r.stats {
		out[i] = st.Epot
	}
	return out
}

// run integrates up to n steps from the initial state, stopping early
// when a non-zero budget runs out, and times the observer callbacks.
func (s *trajSystem) run(eng *sched.Engine, n int, budget time.Duration) (*trajRun, error) {
	r := &trajRun{intervals: make([]float64, 0, n)}
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	before := readUsage()
	flops0 := linalg.FLOPs()
	start := time.Now()
	last := start
	_, err := eng.RunContext(ctx, s.state.Clone(), n, func(st sched.StepStats) {
		now := time.Now()
		r.stats = append(r.stats, st)
		r.intervals = append(r.intervals, now.Sub(last).Seconds())
		last = now
	})
	// The wall ends with the last completed step: a step the budget cut
	// off is neither counted nor timed.
	r.wall = last.Sub(start).Seconds()
	if err != nil && !(errors.Is(err, context.DeadlineExceeded) && len(r.stats) > 0) {
		return nil, err
	}
	r.flops = linalg.FLOPs() - flops0
	r.allocMB, r.gcFrac = before.since()
	return r, nil
}

// check applies the trajectory correctness gates to a run.
func (s *trajSystem) check(w trajWorkload, r *trajRun) error {
	if d := math.Abs(r.stats[0].Epot - s.epot0); !(d <= s.epot0Tol) {
		return fmt.Errorf("step-0 Epot %.12f differs from the reference %.12f by %.3g Ha (tolerance %.1g)",
			r.stats[0].Epot, s.epot0, d, s.epot0Tol)
	}
	last := r.stats[len(r.stats)-1]
	if d := math.Abs(last.Drift); !(d <= s.driftBound) {
		return fmt.Errorf("|drift| %.3g Ha at step %d exceeds the bound %.1g", d, last.Step, s.driftBound)
	}
	for _, st := range r.stats {
		if st.Skipped != 0 {
			return fmt.Errorf("step %d skipped %d evaluations with SkipTol 0", st.Step, st.Skipped)
		}
	}
	if w.warm {
		if c := s.eng.Cache(); c == nil || c.Stats().Skips != 0 {
			return fmt.Errorf("warm-start cache missing or skipping")
		}
	}
	return nil
}

// agree reports the first step at which two runs of the same trajectory
// differ by more than tol — tol0 at step 0, which no integration noise
// has reached yet.
func agree(a, b []float64, tol0, tol float64, what string) error {
	for i := 0; i < len(a) && i < len(b); i++ {
		t := tol
		if i == 0 {
			t = tol0
		}
		if d := math.Abs(a[i] - b[i]); !(d <= t) {
			return fmt.Errorf("%s: step %d Epot differs by %.3g Ha (tolerance %.1g)", what, i, d, t)
		}
	}
	return nil
}

func (w trajWorkload) run(cfg config) (*outcome, error) {
	var sys *trajSystem
	setups := make([]float64, cfg.size.setupReps)
	for i := range setups {
		start := time.Now()
		var err error
		if sys, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	steps, budget := w.plan(cfg, sys, cfg.plainShare())
	plain, err := sys.run(sys.eng, steps, budget)
	if err != nil {
		return nil, err
	}
	if err := sys.check(w, plain); err != nil {
		return nil, err
	}
	out := &outcome{
		endToEnd: values{
			"setup_s":   median(setups),
			"op_s":      median(plain.intervals),
			"ops_per_s": float64(len(plain.stats)) / plain.wall,
		},
		samples:   map[string]int{"setup_s": len(setups), "op_s": len(plain.intervals)},
		attempted: plain.polymers(),
		energies:  plain.energies(),
	}
	if cfg.trace {
		if err := w.traced(cfg, sys, plain, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// usage is a reading of the heap-allocation and CPU-time counters.
type usage struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(s)
	return usage{ms.TotalAlloc, s[0].Value.Float64(), s[1].Value.Float64()}
}

// since returns the MB allocated and the GC's share of CPU time since
// u was read.
func (u usage) since() (allocMB, gcFrac float64) {
	now := readUsage()
	return float64(now.alloc-u.alloc) / 1e6, ratio(now.gcCPU-u.gcCPU, now.cpu-u.cpu)
}
