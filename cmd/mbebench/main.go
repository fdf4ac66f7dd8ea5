// Command mbebench regenerates the paper's tables and figures.
//
// Usage:
//
//	mbebench [-full] <experiment>... | all
//	mbebench -list
//
// -list prints the experiments (bench.Experiments, DESIGN.md §4). By
// default workloads are shrunk to development-box scale; -full runs
// the paper-size configurations (the exascale experiments remain
// discrete-event simulations — see DESIGN.md §2).
//
// The simulated experiments (hier resilience fig7 fig8 table5, and
// async's cluster half) honour -seed and -jitter: -jitter adds
// ±fractional runtime noise to the machine model's task costs and -seed
// makes those draws reproducible run-to-run. Exception: hier
// substitutes ±10 % jitter when -jitter is 0 (its work-stealing path
// needs load imbalance to exist) and prints the value it used.
//
// Four experiments write a machine-readable report and gate it: gemm
// (GFLOP/s and same-run speedups, DESIGN.md §5), evalcost (GEMM flops,
// SCF and Z-vector iterations, dropped metric directions and allocation
// of cold RI-MP2 gradients, §5), neighbor (the fitted O(N) exponent,
// absolute ceiling 1.2, §13) and serve
// (latency, jobs/sec, fairness and drain integrity, §12). -bench-json
// writes the report (conventionally BENCH_gemm.json, BENCH_eval.json,
// BENCH_neighbor.json, BENCH_serve.json), -baseline gates it against a
// committed one and -max-regress sets the tolerance in percent (evalcost
// gates counts and does not read it).
//
// -cpuprofile writes a runtime/pprof CPU profile of the named
// experiments, for go tool pprof (DESIGN.md §5).
//
// An experiment error or a gate violation makes the process exit 1; a
// usage error exits 2. CI runs the four gates.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"github.com/fragmd/fragmd/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// testHookFlagSet, when non-nil, observes the fully-registered FlagSet
// just before Parse. It is the seam for the docs/CLI.md cross-check
// test and must stay nil in production.
var testHookFlagSet func(*flag.FlagSet)

// run is the testable entry point: it parses argv, executes the named
// experiments against stdout, and returns a process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run paper-size configurations")
	list := fs.Bool("list", false, "list experiments")
	benchJSON := fs.String("bench-json", "", "write the gemm/evalcost/neighbor/serve machine-readable report to this path")
	baseline := fs.String("baseline", "", "gate the gemm/evalcost/neighbor/serve report against this committed baseline")
	maxRegress := fs.Float64("max-regress", 25, "allowed regression vs baseline (GFLOP/s, speedups, neighbor exponent, latency, jobs/sec; evalcost gates counts), percent")
	seed := fs.Int64("seed", 0, "cluster-simulator RNG seed for reproducible fig7/fig8/table5/hier runs (0 = default)")
	jitter := fs.Float64("jitter", 0, "simulated task-runtime noise, fraction in [0,1) (0 = deterministic model; hier substitutes 0.1)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the named experiments to this file (go tool pprof)")
	if testHookFlagSet != nil {
		testHookFlagSet(fs)
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	if !(*jitter >= 0 && *jitter < 1) {
		fmt.Fprintf(stderr, "-jitter %g outside [0, 1)\n", *jitter)
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: mbebench [-full] <experiment>|all ... (-list to enumerate)")
		return 2
	}
	var todo []bench.Experiment
	for _, name := range args {
		if name == "all" {
			todo = append(todo, bench.Experiments...)
			continue
		}
		e, ok := bench.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (-list to enumerate)\n", name)
			return 2
		}
		todo = append(todo, e)
	}
	cfg := &bench.Config{
		Quick:         !*full,
		Out:           stdout,
		BenchJSON:     *benchJSON,
		Baseline:      *baseline,
		MaxRegressPct: *maxRegress,
		Seed:          *seed,
		Jitter:        *jitter,
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			}
		}()
	}
	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
		e.Run(cfg)
		fmt.Fprintf(stdout, "---- %s done in %.1fs ----\n\n", e.Name, time.Since(start).Seconds())
	}
	if len(cfg.Failures) > 0 {
		for _, f := range cfg.Failures {
			fmt.Fprintf(stderr, "FAIL: %s\n", f)
		}
		return 1
	}
	return 0
}

// startCPUProfile starts a CPU profile written to path; stop ends it and
// closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
