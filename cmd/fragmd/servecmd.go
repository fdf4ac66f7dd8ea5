// "fragmd serve" — the multi-tenant trajectory server (DESIGN.md §12):
// an HTTP/JSON API over internal/serve. See docs/CLI.md for the flag
// reference and docs of the wire API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/serve"
)

// runServe implements "fragmd serve": listen for job submissions, run
// trajectories under admission control and tenant fair-share, and drain
// gracefully on SIGINT/SIGTERM — in-flight jobs park at their next
// checkpoint, queued jobs stay durably queued, and a restarted server
// on the same -state-dir resumes all of them.
func runServe(argv []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("fragmd serve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	listen := fs.String("listen", ":8737", "TCP address to serve the HTTP API on (use :0 for an ephemeral port)")
	stateDir := fs.String("state-dir", "", "durable state directory for job records and checkpoints (required)")
	maxActive := fs.Int("max-active", 4, "trajectories run concurrently")
	maxQueued := fs.Int("max-queued", 256, "admitted-but-not-running jobs across all tenants; beyond it submissions get 503")
	ckEvery := fs.Int("checkpoint-every", 5, "per-job checkpoint cadence in MD steps — also the drain latency bound")
	jobWorkers := fs.Int("job-workers", 1, "default evaluation goroutines per job when a spec leaves workers unset")
	fleetListen := fs.String("fleet-listen", "", "TCP address to accept netcoord workers on; empty = evaluate in-process")
	fleetMin := fs.Int("fleet-min-workers", 1, "worker processes each trajectory chunk waits for (fleet mode)")
	heartbeat := fs.Duration("heartbeat", netcoord.DefaultHeartbeat, "worker liveness ping interval (fleet mode; silence past 5× evicts)")
	pot := fs.String("potential", "rimp2", "evaluator the fleet's workers build: rimp2 | hf | hf4c | lj (fleet mode; jobs must match)")
	basisName := fs.String("basis", "sto-3g", "orbital basis for the fleet evaluator: sto-3g | dzp (fleet mode)")
	scs := fs.Bool("scs", false, "fleet evaluator reports SCS-MP2 energies (fleet mode)")
	riScreen := fs.Float64("ri-screen", 0, "Schwarz screening threshold for the fleet evaluator (0 = default 1e-12, negative disables; fleet mode)")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if *stateDir == "" {
		return usage(fs, "fragmd serve: -state-dir is required")
	}

	opts := serve.Options{
		StateDir: *stateDir, MaxActive: *maxActive, MaxQueued: *maxQueued,
		CheckpointEvery: *ckEvery, JobWorkers: *jobWorkers,
		FleetMinWorkers: *fleetMin,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(errOut, format+"\n", args...)
		},
	}
	if *fleetListen != "" {
		spec := potential.Spec{Potential: *pot, Basis: *basisName, SCS: *scs, RIScreen: *riScreen}
		if _, err := spec.Build(); err != nil {
			return usage(fs, "fragmd serve: %v", err)
		}
		c, err := netcoord.Listen(*fleetListen, netcoord.CoordinatorOptions{
			Eval: spec, Heartbeat: *heartbeat, Logf: opts.Logf,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		fmt.Fprintf(out, "fleet coordinator listening on %s\n", c.Addr())
		opts.Coordinator = c
	}
	s, err := serve.New(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(out, "serving on %s (state: %s)\n", ln.Addr(), *stateDir)

	// Two-stage shutdown (armSignals): the first signal drains —
	// admissions 503, running jobs park at their next checkpoint, and
	// only then does the listener close (clients keep polling statuses
	// through the drain). The second signal exits immediately; the state
	// directory still resumes cleanly because every mutation is durable.
	drain, stop := armSignals(errOut)
	defer stop()
	go func() {
		<-drain.requested.Done()
		if err := s.Drain(context.Background()); err != nil {
			fmt.Fprintf(errOut, "fragmd serve: %v\n", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.Close()
	fmt.Fprintf(out, "drained; restart with the same -state-dir to resume parked jobs\n")
	return nil
}
