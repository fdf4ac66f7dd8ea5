// The trajectory definition shared by fragmd's two MD front ends,
// "fragmd -mode md|bench" and "fragmd coordinate": one flag table, one
// validator and one assembly of the engine options and the trajectory
// configuration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/traj"
)

// trajFlags holds the system, physics, dynamics, scheduler and
// resilience flags; the scheduler and resilience flags bind straight
// into schedule. workers, warm and embedTol are bound by fragmd alone;
// coordinate leaves them zero (the fleet sizes the evaluation and owns
// the caches, and the engine runs every SCC round).
type trajFlags struct {
	in, basis, ckPath                                            string
	apm, steps, embedSCC, ckEvery, workers                       int
	dimerCut, trimerCut, dt, temp, riScreen, embedDamp, embedTol float64
	sync, scs, embed, resume, warm                               bool
	schedule                                                     coord.Schedule
}

// newTrajFlags registers the shared flags on fs.
func newTrajFlags(fs *flag.FlagSet) *trajFlags {
	t := &trajFlags{}
	fs.StringVar(&t.in, "in", "", "input XYZ file (required)")
	fs.StringVar(&t.basis, "basis", "sto-3g", "orbital basis: sto-3g | dzp")
	fs.IntVar(&t.apm, "atoms-per-monomer", 3, "atoms per monomer for fragmentation")
	fs.Float64Var(&t.dimerCut, "dimer-cut", 0, "dimer centroid cutoff in Å (0 = none)")
	fs.Float64Var(&t.trimerCut, "trimer-cut", 0, "trimer centroid cutoff in Å (0 = none)")
	fs.IntVar(&t.steps, "steps", 10, "MD steps")
	fs.Float64Var(&t.dt, "dt", 0.5, "MD time step in fs")
	fs.Float64Var(&t.temp, "temp", 150, "initial temperature in K")
	fs.BoolVar(&t.sync, "sync", false, "use synchronous time steps")
	fs.IntVar(&t.schedule.Groups, "groups", 0, "group coordinators between the scheduler and the workers (0/1 = flat; on a fleet 0 = one per worker process)")
	fs.IntVar(&t.schedule.Batch, "batch", 0, "tasks per coordinator batch transfer (0/1 = single-task dispatch)")
	fs.BoolVar(&t.schedule.Steal, "steal", false, "enable work stealing between group coordinators")
	fs.BoolVar(&t.scs, "scs", false, "report SCS-MP2 energies")
	fs.Float64Var(&t.riScreen, "ri-screen", 0, "Schwarz screening threshold for three-center (μν|P) integrals (0 = default 1e-12, negative disables)")
	fs.BoolVar(&t.embed, "embed", false, "electrostatically embed every MBE term in the other monomers' Mulliken charges (EE-MBE)")
	fs.IntVar(&t.embedSCC, "embed-scc", 0, "self-consistent charge refinement rounds beyond the vacuum round")
	fs.Float64Var(&t.embedDamp, "embed-damp", 0.4, "SCC charge mixing q ← (1−d)·q_new + d·q_old, 0 ≤ d < 1")
	fs.StringVar(&t.ckPath, "checkpoint", "", "trajectory checkpoint file (MD runs)")
	fs.IntVar(&t.ckEvery, "checkpoint-every", 0, "checkpoint every N completed MD steps (0 = only at the end)")
	fs.BoolVar(&t.resume, "resume", false, "resume the trajectory from -checkpoint instead of starting fresh")
	fs.IntVar(&t.schedule.MaxRetries, "retries", 0, "per-task failure retry budget (0 = failures are fatal; a fleet raises 0 to 1, since a dead worker's reclaimed attempts draw on it)")
	fs.BoolVar(&t.schedule.Speculate, "speculate", false, "re-dispatch straggling tasks to idle workers (first copy wins)")
	return t
}

// parse parses argv into fs, which the caller has finished
// registering, and validates the shared flags; every failure is a usage
// error.
func (t *trajFlags) parse(fs *flag.FlagSet, argv []string) error {
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	switch {
	case t.in == "":
		return usage(fs, "%s: -in is required", fs.Name())
	case (t.resume || t.ckEvery > 0) && t.ckPath == "":
		return usage(fs, "%s: -resume and -checkpoint-every need -checkpoint", fs.Name())
	case t.ckEvery < 0:
		return usage(fs, "%s: -checkpoint-every must not be negative", fs.Name())
	case t.steps < 1:
		return usage(fs, "%s: -steps must be at least 1", fs.Name())
	case !(t.dt > 0) || math.IsInf(t.dt, 1):
		return usage(fs, "%s: -dt must be positive and finite", fs.Name())
	case !(t.temp >= 0) || math.IsInf(t.temp, 1):
		return usage(fs, "%s: -temp must be non-negative and finite", fs.Name())
	}
	if e := t.options().Embed; e != nil {
		if err := e.Validate(); err != nil {
			return usage(fs, "%s: %v", fs.Name(), err)
		}
	}
	return nil
}

// spec is the evaluator the physics flags select for the named potential.
func (t *trajFlags) spec(pot string) potential.Spec {
	return potential.Spec{Potential: pot, Basis: t.basis, SCS: t.scs, RIScreen: t.riScreen}
}

// load reads and fragments -in — boxA, when non-empty, overrides the
// XYZ's cell; pbc demands one — prints the summary lines, and refuses
// -embed in a periodic cell before anything evaluates or listens.
func (t *trajFlags) load(fs *flag.FlagSet, out io.Writer, boxA []float64, pbc bool) (*fragment.Fragmentation, error) {
	file, err := os.Open(t.in)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	f, err := fragment.LoadSystem(file, boxA, t.apm, t.dimerCut, t.trimerCut)
	if errors.Is(err, fragment.ErrBox) {
		return nil, usage(fs, "%s: -%v", fs.Name(), err) // err reads "box: …"
	}
	if err != nil {
		return nil, err
	}
	g := f.Geom
	if pbc && g.Cell == nil {
		return nil, usage(fs, "%s: -pbc needs a cell: pass -box or use an XYZ with a cell= comment", fs.Name())
	}
	if c := g.Cell; c != nil {
		fmt.Fprintf(out, "system: %d atoms, %d electrons, periodic cell %g x %g x %g Å\n",
			g.N(), g.NumElectrons(),
			c.L[0]*chem.AngstromPerBohr, c.L[1]*chem.AngstromPerBohr, c.L[2]*chem.AngstromPerBohr)
	} else {
		fmt.Fprintf(out, "system: %d atoms, %d electrons\n", g.N(), g.NumElectrons())
	}
	terms := f.Terms()
	fmt.Fprintf(out, "fragmentation: %d monomers, %d dimers, %d trimers\n",
		len(terms.Monomers), len(terms.Dimers), len(terms.Trimers))
	if t.embed {
		if err := f.CheckEmbeddable(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// options builds the engine options. The engine ignores the SCC
// tolerance (its task graph is static, so MD runs every round); only
// fragmd's serial energy/grad paths stop early on it.
func (t *trajFlags) options() sched.Options {
	o := sched.Options{
		Workers: t.workers, Async: !t.sync, Dt: t.dt * chem.AtomicTimePerFs,
		Schedule: t.schedule, WarmStart: t.warm,
	}
	if t.embed {
		o.Embed = &fragment.EmbedOptions{SCC: t.embedSCC, SCCTol: t.embedTol, Damping: t.embedDamp}
	}
	return o
}

// config builds the trajectory of f under eval (nil when a fleet
// evaluates).
func (t *trajFlags) config(f *fragment.Fragmentation, eval fragment.Evaluator) traj.Config {
	return traj.Config{Frag: f, Eval: eval, Opts: t.options(), Steps: t.steps, TempK: t.temp, Seed: 1,
		CkPath: t.ckPath, CkEvery: t.ckEvery, Resume: t.resume}
}
