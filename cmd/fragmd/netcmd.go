// Distributed mode (DESIGN.md §10): "fragmd coordinate" drives an MD
// trajectory over worker processes connected via TCP, and
// "fragmd worker" is one such process. See the README's distributed
// quickstart and docs/CLI.md for the full flag reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/traj"
)

// runWorkerCmd implements "fragmd worker": dial a coordinator, offer
// evaluation slots, and serve tasks until the process is killed.
func runWorkerCmd(argv []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("fragmd worker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	connect := fs.String("connect", "", "coordinator address host:port (required)")
	slots := fs.Int("slots", 1, "tasks this process evaluates concurrently")
	warm := fs.Bool("warm", false, "warm-start each polymer's SCF from its previous converged density (worker-local cache)")
	skipTol := fs.Float64("skip-tol", 0, "skip re-evaluating polymers that moved less than this (Å, 0 = off; approximate)")
	maxSkip := fs.Int("max-skip", 0, "staleness bound: max consecutive skipped evaluations per polymer (0 = default)")
	redial := fs.Duration("redial", 500*time.Millisecond, "pause between reconnect attempts after a lost coordinator (negative = exit after one session)")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if *connect == "" {
		return usage(fs, "fragmd worker: -connect is required")
	}
	if *slots < 1 {
		return usage(fs, "fragmd worker: -slots must be at least 1")
	}
	return netcoord.RunWorker(context.Background(), *connect, netcoord.WorkerOptions{
		Slots:     *slots,
		WarmStart: *warm,
		SkipTol:   *skipTol * chem.BohrPerAngstrom,
		MaxSkip:   *maxSkip,
		Redial:    *redial,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
}

// runCoordinate implements "fragmd coordinate": listen for workers,
// then run the MD trajectory with every fragment evaluation shipped to
// the fleet. The coordinator owns the physics configuration — workers
// receive the evaluator specification in the handshake — and the
// trajectory, including checkpoint/resume, stays on this process; a
// coordinator restarted with -resume reassembles redialling workers
// and continues the checkpointed trajectory.
func runCoordinate(argv []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("fragmd coordinate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	listen := fs.String("listen", ":9137", "TCP address to accept workers on (use :0 for an ephemeral port)")
	minWorkers := fs.Int("min-workers", 1, "worker processes to wait for before each trajectory chunk")
	waitTimeout := fs.Duration("wait-timeout", 0, "give up when the fleet stays below -min-workers this long (0 = wait forever)")
	heartbeat := fs.Duration("heartbeat", netcoord.DefaultHeartbeat, "worker liveness ping interval (silence past 5× evicts)")
	pot := fs.String("potential", "rimp2", "evaluator the workers build: rimp2 | hf | hf4c | lj")
	in := fs.String("in", "", "input XYZ file (required)")
	basisName := fs.String("basis", "sto-3g", "orbital basis: sto-3g | dzp")
	apm := fs.Int("atoms-per-monomer", 3, "atoms per monomer for fragmentation")
	dimerCut := fs.Float64("dimer-cut", 0, "dimer centroid cutoff in Å (0 = none)")
	trimerCut := fs.Float64("trimer-cut", 0, "trimer centroid cutoff in Å (0 = none)")
	steps := fs.Int("steps", 10, "MD steps")
	dt := fs.Float64("dt", 0.5, "MD time step in fs")
	temp := fs.Float64("temp", 150, "initial temperature in K")
	sync := fs.Bool("sync", false, "use synchronous time steps")
	groups := fs.Int("groups", 0, "group coordinators (0 = one per worker process)")
	batch := fs.Int("batch", 0, "tasks per coordinator batch transfer (0/1 = single-task dispatch)")
	steal := fs.Bool("steal", false, "enable work stealing between group coordinators")
	scs := fs.Bool("scs", false, "report SCS-MP2 energies")
	riScreen := fs.Float64("ri-screen", 0, "Schwarz screening threshold for three-center (μν|P) integrals (0 = default 1e-12, negative disables)")
	embed := fs.Bool("embed", false, "electrostatically embed every MBE term in the other monomers' Mulliken charges (EE-MBE)")
	embedSCC := fs.Int("embed-scc", 0, "self-consistent charge refinement rounds beyond the vacuum round")
	embedDamp := fs.Float64("embed-damp", 0.4, "SCC charge mixing q ← (1−d)·q_new + d·q_old, 0 ≤ d < 1")
	ckPath := fs.String("checkpoint", "", "trajectory checkpoint file")
	ckEvery := fs.Int("checkpoint-every", 0, "checkpoint every N completed MD steps (0 = only at the end)")
	resume := fs.Bool("resume", false, "resume the trajectory from -checkpoint instead of starting fresh")
	retries := fs.Int("retries", 1, "per-task failure retry budget; a dead worker's reclaimed attempts draw on it, so keep it ≥ 1")
	speculate := fs.Bool("speculate", false, "re-dispatch straggling tasks to idle workers (first copy wins)")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if *in == "" {
		return usage(fs, "fragmd coordinate: -in is required")
	}
	if *minWorkers < 1 {
		return usage(fs, "fragmd coordinate: -min-workers must be at least 1")
	}
	if (*resume || *ckEvery > 0) && *ckPath == "" {
		return usage(fs, "fragmd coordinate: -resume and -checkpoint-every need -checkpoint")
	}
	if *ckEvery < 0 {
		return usage(fs, "fragmd coordinate: -checkpoint-every must not be negative")
	}
	spec := potential.Spec{Potential: *pot, Basis: *basisName, SCS: *scs, RIScreen: *riScreen}
	if _, err := spec.Build(); err != nil {
		return usage(fs, "fragmd coordinate: %v", err)
	}
	var embedOpts *fragment.EmbedOptions
	if *embed {
		embedOpts = &fragment.EmbedOptions{SCC: *embedSCC, Damping: *embedDamp}
		if err := embedOpts.Validate(); err != nil {
			fmt.Fprintf(errOut, "fragmd coordinate: %v\n", err)
			return errUsage
		}
	}

	f, err := loadSystem(*in, nil, *apm, *dimerCut, *trimerCut)
	if err != nil {
		return err
	}
	printSystem(out, f)

	c, err := netcoord.Listen(*listen, netcoord.CoordinatorOptions{
		Eval: spec, Heartbeat: *heartbeat,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(errOut, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(out, "coordinator listening on %s\n", c.Addr())

	engOpts := sched.Options{
		Async: !*sync, Dt: *dt * chem.AtomicTimePerFs,
		Groups: *groups, Batch: *batch, Steal: *steal,
		MaxRetries: *retries, Speculate: *speculate,
	}
	engOpts.Embed = embedOpts
	// Each trajectory chunk leases the fleet afresh, so workers that
	// died are dropped and workers that (re)joined since the last chunk
	// — including after a coordinator restart — pick up work again.
	prep := func(o *sched.Options) (func(), error) {
		ctx := context.Background()
		if *waitTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *waitTimeout)
			defer cancel()
		}
		release, err := c.Lease(ctx, *minWorkers, o)
		if err == nil {
			x := o.Exec.(*netcoord.Executor)
			fmt.Fprintf(out, "fleet: %d worker processes, %d slots\n", x.Procs(), x.Workers())
		}
		return release, err
	}
	drain, stop := armSignals(errOut)
	defer stop()
	return runMD(out, traj.Config{Frag: f, Opts: engOpts, Steps: *steps, TempK: *temp, Seed: 1,
		CkPath: *ckPath, CkEvery: *ckEvery, Resume: *resume}, prep, drain)
}
