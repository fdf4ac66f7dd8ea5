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

	"github.com/fragmd/fragmd/internal/netcoord"
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
	t := newTrajFlags(fs)
	if err := t.parse(fs, argv); err != nil {
		return err
	}
	if *minWorkers < 1 {
		return usage(fs, "fragmd coordinate: -min-workers must be at least 1")
	}
	spec := t.spec(*pot)
	if _, err := spec.Build(); err != nil {
		return usage(fs, "fragmd coordinate: %v", err)
	}
	f, err := t.load(fs, out, nil, false)
	if err != nil {
		return err
	}

	// Signals are armed before the listener, so a drain requested
	// while the fleet assembles is never lost.
	drain, stop := armSignals(errOut)
	defer stop()
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

	// Each trajectory chunk leases the fleet afresh, so workers that
	// died are dropped and workers that (re)joined since the last chunk
	// — including after a coordinator restart — pick up work again. A
	// drain requested during the wait ends it at this boundary.
	prep := func(o *sched.Options) (func(), error) {
		ctx := drain.requested
		if *waitTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *waitTimeout)
			defer cancel()
		}
		release, err := c.Lease(ctx, *minWorkers, o)
		if err != nil && drain.drained() {
			return nil, traj.ErrStop
		}
		if err == nil {
			x := o.Exec.(*netcoord.Executor)
			fmt.Fprintf(out, "fleet: %d worker processes, %d slots\n", x.Procs(), x.Workers())
		}
		return release, err
	}
	return runMD(out, t.config(f, nil), prep, drain)
}
