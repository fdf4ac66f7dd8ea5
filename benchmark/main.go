// Command benchmark is the repository's end-to-end benchmark (ISSUE 12):
// four workloads, three end-to-end metrics measured untraced, and a
// traced run plus replay pass that attributes the time to the layers.
// See README.md; BENCHMARK.json at the repository root is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/fragmd/fragmd/internal/linalg"
)

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(config) (*outcome, error)
}

var workloads = []workload{
	trajectory(trajWorkload{name: "water3-rimp2-cold", rimp2: true}),
	trajectory(trajWorkload{name: "water3-rimp2-warm", rimp2: true, warm: true}),
	trajectory(trajWorkload{name: "ljbox8-dispatch"}),
	{serveName, runServe},
}

func trajectory(w trajWorkload) workload { return workload{w.name, w.run} }

const (
	// runCap aborts a single-workload invocation before the contract's
	// 180 s limit; a pass over all four gets four times that.
	runCap = 170 * time.Second

	buildDir = ".bench_build"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, fullSize, runCap)) }

// realMain is main with its inputs explicit: the smoke test passes toy
// sizes, the watchdog test a short cap.
func realMain(args []string, stdout, stderr io.Writer, size sizing, runCap time.Duration) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 28, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run and replay pass, per-layer metrics; 0: end-to-end metrics")
	repeat := fs.Int("repeat", 1, "with -workload all: run the whole set this many times and compare the sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: need -seconds > 0, -repeat ≥ 1, -trace 0|1 and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(workers)

	// Scratch space is .bench_build in the working directory, which the
	// driver and .gitignore both already know about.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, size: size,
		workDir: workDir, traceDir: filepath.Join(buildDir, "trace")}
	printEnvironment(stdout, cfg)

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	limit := runCap
	if *name == "all" {
		limit = time.Duration(*repeat*len(workloads)) * runCap
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "benchmark: watchdog: still running after %v, aborting\n", limit)
		os.RemoveAll(workDir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *name == "all" {
		err = runSets(stdout, selected, cfg, *repeat)
	} else {
		err = runOne(stdout, selected[0], cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func printEnvironment(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# fragmd benchmark: seed %d, %.0f s per run, trace %v\n", cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# nproc %d, GOMAXPROCS %d, %s %s/%s, cpu [%s], microkernel %s, FRAGMD_NOASM=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		linalg.CPUFeatures(), linalg.MicroKernelName(), os.Getenv("FRAGMD_NOASM"))
}

// runQuiesced runs one workload and then insists that it left nothing
// behind: the goroutine count must return to where it was.
func runQuiesced(w workload, cfg config) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	out, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: %d goroutines still running, %d before the workload",
				w.name, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return out, nil
}

// result is the last line of a single-workload run, as BENCHMARK.json's
// contract defines it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(stdout io.Writer, w workload, cfg config) error {
	out, err := runQuiesced(w, cfg)
	if err != nil {
		return err
	}
	printOutcome(stdout, w.name, out)
	table, vals := endToEnd, out.endToEnd
	if cfg.trace {
		table, vals = perLayer, out.perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	return out.failureOf(w.name)
}

// failureOf is the error a run with failed operations ends with.
func (o *outcome) failureOf(name string) error {
	if o.failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed, the first with: %w", name, o.failed, o.attempted, o.failure)
}

// printOutcome lists every metric of a run by name and unit.
func printOutcome(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed\n", name, out.attempted, out.failed)
	row := func(m metric, v float64) {
		n := ""
		if c, ok := out.samples[m.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s%s\n", m.name, v, m.unit, n)
	}
	for _, m := range endToEnd {
		row(m, out.endToEnd[m.name])
	}
	if out.perLayer == nil {
		return
	}
	fmt.Fprintf(w, "  -- per layer (traced run and replay; spans in %s)\n", out.spanFile)
	for _, m := range perLayer {
		row(m, out.perLayer[m.name])
	}
}

// bound is one end-to-end metric's entry in BENCHMARK.json, the one
// place regression bounds and directions are fixed.
type bound struct {
	Name, Better string
	Bound        float64
}

func readBounds() (map[string]bound, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]bound{}
	for _, b := range doc.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// runSets runs the whole set of workloads repeat times, in the order
// A,B,C,D,A,B,C,D…, applies the cross-workload check, and — with more
// than one set — compares the sets metric by metric against the bounds.
func runSets(stdout io.Writer, ws []workload, cfg config, repeat int) error {
	bnd, err := readBounds()
	if err != nil {
		return err
	}
	sets := make([]map[string]*outcome, repeat)
	for r := range sets {
		sets[r] = map[string]*outcome{}
		for _, w := range ws {
			out, err := runQuiesced(w, cfg)
			if err != nil {
				return err
			}
			if err := out.failureOf(w.name); err != nil {
				return err
			}
			printOutcome(stdout, fmt.Sprintf("%s (set %d)", w.name, r+1), out)
			sets[r][w.name] = out
		}
		// Warm starting changes the SCF's path, never its answer.
		cold, warm := sets[r]["water3-rimp2-cold"], sets[r]["water3-rimp2-warm"]
		if err := agree(cold.energies, warm.energies, 1e-7, 1e-7, "water3-rimp2-warm vs -cold"); err != nil {
			return err
		}
	}

	pass := true
	if repeat > 1 {
		fmt.Fprintf(stdout, "\n== repeatability: %d sets of the same commit; difference = worst set vs first set, in the worse direction\n", repeat)
		var head strings.Builder
		for r := range sets {
			fmt.Fprintf(&head, " %11s", fmt.Sprintf("set %d", r+1))
		}
		fmt.Fprintf(stdout, "  %-20s %-10s%s  %10s %6s\n", "workload", "metric", head.String(), "difference", "bound")
		for _, w := range ws {
			for _, m := range endToEnd {
				b := bnd[m.name]
				first := sets[0][w.name].endToEnd[m.name]
				var cols strings.Builder
				worst := 0.0
				for r := range sets {
					v := sets[r][w.name].endToEnd[m.name]
					fmt.Fprintf(&cols, " %11.5g", v)
					d := v/first - 1
					if b.Better == "higher" {
						d = first/v - 1
					}
					worst = max(worst, d)
				}
				verdict := "PASS"
				if worst > b.Bound {
					verdict, pass = "FAIL", false
				}
				fmt.Fprintf(stdout, "  %-20s %-10s%s  %+9.2f%% %6.0f%%  %s\n", w.name, m.name, cols.String(), 100*worst, 100*b.Bound, verdict)
			}
		}
	}

	summary := struct {
		Correct   bool                          `json:"correct"`
		Seed      int64                         `json:"seed"`
		Sets      int                           `json:"sets"`
		Workloads map[string]map[string]float64 `json:"workloads"`
		Claim     *string                       `json:"claim"`
	}{Correct: true, Seed: cfg.seed, Sets: repeat, Workloads: map[string]map[string]float64{}}
	for _, w := range ws {
		summary.Workloads[w.name] = map[string]float64{}
		for _, m := range endToEnd {
			var vals []float64
			for r := range sets {
				vals = append(vals, sets[r][w.name].endToEnd[m.name])
			}
			summary.Workloads[w.name][m.name] = median(vals)
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !pass {
		return fmt.Errorf("two sets of the same commit differ by more than a metric's bound")
	}
	return nil
}
