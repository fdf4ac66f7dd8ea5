// Command fragmd runs MBE3/RI-MP2 calculations on an XYZ geometry:
// single-point energies, analytic gradients, NVE AIMD with the
// asynchronous time-step engine, or a cold-vs-warm-start dynamics
// benchmark.
//
// Usage:
//
//	fragmd -in system.xyz [-mode energy|grad|md|bench] [-basis sto-3g|dzp]
//	       [-atoms-per-monomer N] [-dimer-cut Å] [-trimer-cut Å] [-ri-screen t]
//	       [-box Lx,Ly,Lz] [-pbc]
//	       [-embed] [-embed-scc N] [-embed-tol e] [-embed-damp d]
//	       [-steps N] [-dt fs] [-temp K] [-sync] [-workers N]
//	       [-groups N] [-batch N] [-steal]
//	       [-warm]
//	       [-checkpoint file] [-checkpoint-every N] [-resume]
//	       [-retries N] [-speculate]
//
// Periodic boundaries (DESIGN.md §13): -box attaches an orthorhombic
// cell ("L" for cubic or "Lx,Ly,Lz", Å) and switches every distance in
// the fragmentation path to the minimum-image convention; it overrides
// any cell= comment in the XYZ. -pbc asserts the run is periodic —
// it errors out unless a cell arrives via -box or the XYZ comment —
// so scripts cannot silently fall back to open boundaries.
//
// Embedding knobs (EE-MBE, DESIGN.md §8): -embed evaluates every MBE
// term in the point-charge field of the other monomers' Mulliken
// charges; -embed-scc adds self-consistent charge refinement rounds
// (each monomer re-derived in the others' charges), mixed with
// -embed-damp; -embed-tol stops the refinement early in energy/grad
// modes (MD always runs all rounds — its task graph is static). MD
// output gains a drift column, the NVE conservation diagnostic.
//
// Scheduler knobs: -workers sizes the evaluator pool (default
// GOMAXPROCS); -groups/-batch/-steal engage the hierarchical
// group-coordinator layer shared with the cluster simulator
// (DESIGN.md §6) — batching amortises dispatch, stealing rebalances
// uneven groups. The knobs change task placement only, never the
// trajectory.
//
// Warm start (-warm) enables incremental evaluation across MD steps:
// each polymer's converged density becomes its next SCF guess (exact;
// fewer iterations, every polymer still evaluated every step). -mode
// bench runs the same trajectory cold and warm and reports
// SCF-iterations-per-step and wall-per-step for both.
//
// Resilience knobs (md mode; DESIGN.md §7): -checkpoint names a
// trajectory checkpoint file, written atomically every
// -checkpoint-every completed steps (0 = only at the end) — a killed
// run restarts from it with -resume and reproduces the uninterrupted
// trajectory's energies. -retries gives each polymer task a failure
// budget (re-queued on a surviving worker) instead of aborting on
// first failure; -speculate re-dispatches straggling tasks to idle
// workers.
//
// The geometry is fragmented into monomers of equal atom count (for
// molecular clusters built molecule-by-molecule); covalent systems use
// the library API for residue-level fragmentation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/traj"
)

// errUsage marks command-line usage errors whose diagnostics have
// already been printed (exit 2, matching the pre-FlagSet behaviour).
var errUsage = errors.New("fragmd: usage error")

// testHookFlagSet, when non-nil, observes every fully-registered
// FlagSet just before Parse. It is the seam for the docs/CLI.md
// cross-check test and must stay nil in production.
var testHookFlagSet func(*flag.FlagSet)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h/-help: usage already printed, exit 0.
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run is the testable entry point: it parses argv, writes reports to
// out and diagnostics to errOut. The first argument may name a
// subcommand — "worker" or "coordinate", the distributed roles, or
// "serve", the trajectory server — and everything else is the classic
// single-process CLI.
func run(argv []string, out, errOut io.Writer) error {
	if len(argv) > 0 {
		switch argv[0] {
		case "worker":
			return runWorkerCmd(argv[1:], out, errOut)
		case "coordinate":
			return runCoordinate(argv[1:], out, errOut)
		case "serve":
			return runServe(argv[1:], out, errOut)
		}
	}
	fs := flag.NewFlagSet("fragmd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	in := fs.String("in", "", "input XYZ file (required)")
	mode := fs.String("mode", "energy", "energy | grad | md | bench")
	basisName := fs.String("basis", "sto-3g", "orbital basis: sto-3g | dzp")
	apm := fs.Int("atoms-per-monomer", 3, "atoms per monomer for fragmentation")
	dimerCut := fs.Float64("dimer-cut", 0, "dimer centroid cutoff in Å (0 = none)")
	trimerCut := fs.Float64("trimer-cut", 0, "trimer centroid cutoff in Å (0 = none)")
	box := fs.String("box", "", "periodic cell edge lengths in Å, \"L\" (cubic) or \"Lx,Ly,Lz\"; overrides any cell= comment in the XYZ")
	pbc := fs.Bool("pbc", false, "require periodic boundaries: error unless a cell comes from -box or the XYZ's cell= comment")
	steps := fs.Int("steps", 10, "MD steps")
	dt := fs.Float64("dt", 0.5, "MD time step in fs")
	temp := fs.Float64("temp", 150, "initial temperature in K")
	sync := fs.Bool("sync", false, "use synchronous time steps")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	groups := fs.Int("groups", 0, "group coordinators between the scheduler and the workers (0/1 = flat)")
	batch := fs.Int("batch", 0, "tasks per coordinator batch transfer (0/1 = single-task dispatch)")
	steal := fs.Bool("steal", false, "enable work stealing between group coordinators")
	scs := fs.Bool("scs", false, "report SCS-MP2 energies")
	riScreen := fs.Float64("ri-screen", 0, "Schwarz screening threshold for three-center (μν|P) integrals (0 = default 1e-12, negative disables)")
	embed := fs.Bool("embed", false, "electrostatically embed every MBE term in the other monomers' Mulliken charges (EE-MBE)")
	embedSCC := fs.Int("embed-scc", 0, "self-consistent charge refinement rounds beyond the vacuum round")
	embedTol := fs.Float64("embed-tol", 0, "stop SCC early when max |Δq| falls below this (e); energy/grad modes only, 0 = run all rounds")
	embedDamp := fs.Float64("embed-damp", 0.4, "SCC charge mixing q ← (1−d)·q_new + d·q_old, 0 ≤ d < 1")
	warm := fs.Bool("warm", false, "warm-start each polymer's SCF from its previous converged density")
	ckPath := fs.String("checkpoint", "", "trajectory checkpoint file (md mode)")
	ckEvery := fs.Int("checkpoint-every", 0, "checkpoint every N completed MD steps (0 = only at the end)")
	resume := fs.Bool("resume", false, "resume the trajectory from -checkpoint instead of starting fresh")
	retries := fs.Int("retries", 0, "per-task failure retry budget (0 = failures are fatal)")
	speculate := fs.Bool("speculate", false, "re-dispatch straggling tasks to idle workers (first copy wins)")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}

	if *in == "" {
		return usage(fs, "fragmd: -in is required")
	}
	if (*resume || *ckEvery > 0) && *ckPath == "" {
		return usage(fs, "fragmd: -resume and -checkpoint-every need -checkpoint")
	}
	if *ckEvery < 0 {
		return usage(fs, "fragmd: -checkpoint-every must not be negative")
	}
	var boxA []float64
	if *box != "" {
		for _, p := range strings.Split(*box, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return usage(fs, "fragmd: -box: bad edge length %q", p)
			}
			boxA = append(boxA, v)
		}
	}
	f, err := loadSystem(*in, boxA, *apm, *dimerCut, *trimerCut)
	if errors.Is(err, fragment.ErrBox) {
		return usage(fs, "fragmd: -%v", err) // err reads "box: …"
	}
	if err != nil {
		return err
	}
	if *pbc && f.Geom.Cell == nil {
		return usage(fs, "fragmd: -pbc needs a cell: pass -box or use an XYZ with a cell= comment")
	}
	printSystem(out, f)

	eval, err := potential.Spec{Potential: "rimp2", Basis: *basisName, SCS: *scs, RIScreen: *riScreen}.Build()
	if err != nil {
		return err
	}
	var embedOpts *fragment.EmbedOptions
	if *embed {
		embedOpts = &fragment.EmbedOptions{SCC: *embedSCC, SCCTol: *embedTol, Damping: *embedDamp}
		if err := embedOpts.Validate(); err != nil {
			fmt.Fprintf(errOut, "fragmd: %v\n", err)
			return errUsage
		}
	}
	engOpts := sched.Options{
		Workers: *workers, Async: !*sync, Dt: *dt * chem.AtomicTimePerFs,
		Groups: *groups, Batch: *batch, Steal: *steal,
		WarmStart: *warm, MaxRetries: *retries, Speculate: *speculate,
	}
	// The engine's task graph is static, so it ignores the SCC tolerance:
	// that only applies to the serial energy/grad paths; MD runs all rounds.
	engOpts.Embed = embedOpts
	linalg.ResetFLOPs()

	switch *mode {
	case "energy", "grad":
		var res *fragment.Result
		if embedOpts != nil {
			res, err = f.ComputeEmbedded(eval, nil, *embedOpts)
		} else {
			res, err = f.Compute(eval)
		}
		if err != nil {
			return err
		}
		if embedOpts != nil {
			fmt.Fprintf(out, "EE-MBE3/RI-MP2 energy: %.10f Ha (SCC rounds %d, far-pair residual %.3e Ha)\n",
				res.Energy, res.SCCRounds, res.EPairResidual)
		} else {
			fmt.Fprintf(out, "MBE3/RI-MP2 energy: %.10f Ha\n", res.Energy)
		}
		if *mode == "grad" {
			fmt.Fprintln(out, "gradient (Ha/Bohr):")
			for i, a := range f.Geom.Atoms {
				fmt.Fprintf(out, "  %-3s % .8f % .8f % .8f\n", chem.Symbol(a.Z),
					res.Gradient[3*i], res.Gradient[3*i+1], res.Gradient[3*i+2])
			}
		}
	case "md":
		drain, stop := armSignals(errOut)
		defer stop()
		cfg := traj.Config{Frag: f, Eval: eval, Opts: engOpts, Steps: *steps, TempK: *temp, Seed: 1,
			CkPath: *ckPath, CkEvery: *ckEvery, Resume: *resume}
		if err := runMD(out, cfg, nil, drain); err != nil {
			return err
		}
	case "bench":
		// Self-describing bench output: which micro-kernel the packed
		// GEMM engine dispatches to on this machine, and why.
		feats := linalg.CPUFeatures()
		if feats == "" {
			feats = "none"
		}
		fmt.Fprintf(out, "gemm microkernel: %s (cpu features: %s)\n", linalg.MicroKernelName(), feats)
		if err := runWarmBench(out, f, eval, engOpts, *steps, *temp); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	fmt.Fprintf(out, "GEMM FLOPs executed: %.3e\n", float64(linalg.FLOPs()))
	return nil
}

// parseFlags parses argv into the fully-registered fs: -h/-help yields
// flag.ErrHelp, any other failure errUsage (fs already printed the
// diagnostic and usage).
func parseFlags(fs *flag.FlagSet, argv []string) error {
	if testHookFlagSet != nil {
		testHookFlagSet(fs)
	}
	err := fs.Parse(argv)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// usage reports a command-line usage error — the diagnostic and the
// flag summary go to fs's output — and returns errUsage.
func usage(fs *flag.FlagSet, format string, args ...interface{}) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// loadSystem reads and fragments the XYZ file at path (flag units, Å).
func loadSystem(path string, boxA []float64, apm int, dimerCut, trimerCut float64) (*fragment.Fragmentation, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return fragment.LoadSystem(file, boxA, apm, dimerCut, trimerCut)
}

// printSystem writes the system and fragmentation summary lines.
func printSystem(out io.Writer, f *fragment.Fragmentation) {
	g := f.Geom
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
}

// runMD is the CLI adapter over traj.Run (DESIGN.md §7): it prints the
// NVE table and the resume/checkpoint/drain lines. prep, when non-nil,
// runs before each chunk — the distributed coordinator uses it to lease
// the worker fleet. drain, when non-nil, is polled between chunks: a
// requested drain stops the run at its last checkpoint and returns nil
// (exit 0), the graceful half of the two-stage signal handler.
func runMD(out io.Writer, cfg traj.Config, prep func(*sched.Options) (func(), error), drain *drainer) error {
	header := func() {
		fmt.Fprintf(out, "%6s %18s %14s %10s %11s %9s\n", "step", "Etot (Ha)", "Epot (Ha)", "T (K)", "drift (Ha)", "SCF-iter")
	}
	if !cfg.Resume {
		header()
	}
	done, err := traj.Run(context.Background(), cfg, traj.Hooks{
		Resumed: func(ck *resilience.Checkpoint) {
			fmt.Fprintf(out, "resumed from %s at step %d/%d (%d warm states)\n", cfg.CkPath, ck.StepsDone, cfg.Steps, len(ck.Warm))
			if ck.TotalSteps > 0 && ck.TotalSteps != cfg.Steps {
				fmt.Fprintf(out, "note: checkpointed run was headed for %d steps; continuing to %d\n",
					ck.TotalSteps, cfg.Steps)
			}
			if ck.StepsDone >= cfg.Steps {
				fmt.Fprintf(out, "trajectory already complete\n")
				return
			}
			header()
		},
		BeforeChunk: func(o *sched.Options) (func(), error) {
			if drain.drained() {
				return nil, traj.ErrStop
			}
			if prep == nil {
				return nil, nil
			}
			return prep(o)
		},
		Step: func(st sched.StepStats, _ float64) {
			tK := 2 * st.Ekin / (3 * float64(cfg.Frag.Geom.N())) * chem.KelvinPerHartree
			fmt.Fprintf(out, "%6d %18.8f %14.8f %10.1f %11.2e %9d\n",
				st.Step, st.Etot, st.Epot, tK, st.Drift, st.SCFIters)
		},
		Checkpointed: func(done int) {
			fmt.Fprintf(out, "checkpoint: %s (step %d/%d)\n", cfg.CkPath, done, cfg.Steps)
		},
	})
	if err != nil {
		return err
	}
	if done < cfg.Steps && cfg.CkPath == "" {
		fmt.Fprintf(out, "drained at step %d/%d (no -checkpoint: remaining steps are not resumable)\n", done, cfg.Steps)
	} else if done < cfg.Steps {
		fmt.Fprintf(out, "drained at step %d/%d; resume with -resume -checkpoint %s\n", done, cfg.Steps, cfg.CkPath)
	}
	return nil
}

// runWarmBench integrates the same trajectory twice — cold and with
// warm-started SCF — and reports
// SCF-iterations-per-step and wall-per-step for both, so the speedup
// of the incremental-evaluation subsystem is measured, not asserted.
func runWarmBench(out io.Writer, f *fragment.Fragmentation, eval fragment.Evaluator, engOpts sched.Options, steps int, temp float64) error {
	// The engine reads the fragmentation read-only (positions advance
	// inside the state's cloned geometry), so both runs can share f and
	// start from identical initial conditions.
	one := func(opts sched.Options, n int) ([]sched.StepStats, error) {
		eng, err := sched.New(f, eval, opts)
		if err != nil {
			return nil, err
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(temp, rand.New(rand.NewSource(1)))
		return eng.Run(state, n, nil)
	}
	coldOpts := engOpts
	coldOpts.WarmStart, coldOpts.Cache = false, nil
	// Untimed throwaway step so first-use costs (pooled pack buffers,
	// cold caches) don't bias whichever timed run goes first.
	if _, err := one(coldOpts, 1); err != nil {
		return err
	}
	cold, err := one(coldOpts, steps)
	if err != nil {
		return err
	}
	warmOpts := engOpts
	warmOpts.WarmStart = true
	warmRun, err := one(warmOpts, steps)
	if err != nil {
		return err
	}
	sched.CompareDynamics(out, cold, warmRun)
	return nil
}
