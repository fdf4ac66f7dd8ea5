package bench

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/mp2"
	"github.com/fragmd/fragmd/internal/scf"
	"github.com/fragmd/fragmd/internal/sched"
)

// EvalCostSchema identifies the BENCH_eval_baseline.json layout; bump on
// incompatible changes so the gate refuses stale baselines.
const EvalCostSchema = "fragmd-bench-evalcost/v1"

// evalMBSlack is the fraction by which a row's allocated megabytes may
// exceed the baseline's. Allocation is the one count that moves a little
// from run to run (pooled pack buffers survive a garbage collection or
// not), so it gets a fixed allowance instead of equality.
const evalMBSlack = 0.10

// EvalCostRow is what one cold RI-MP2 evaluation costs in counts that do
// not depend on the machine: GEMM flops, SCF and Z-vector iterations,
// dropped RI metric directions and megabytes allocated, all from one pass
// at GOMAXPROCS 1, plus the wall times of that pass and of a second one
// at the host's GOMAXPROCS, which are recorded but not gated: their
// ratio is the row's parallel speed-up.
type EvalCostRow struct {
	Name      string  `json:"name"` // "dzp-water3", "mbe2-dzp-water3-2w", stable across runs
	GemmFLOPs int64   `json:"gemm_flops"`
	SCFIters  int     `json:"scf_iters"`
	ZVecIters int     `json:"zvec_iters"`
	Dropped   int     `json:"dropped"`
	AllocMB   float64 `json:"alloc_mb"`
	Seconds1P float64 `json:"seconds_1p"` // best of three cold evaluations at GOMAXPROCS 1
	Seconds   float64 `json:"seconds"`    // best of three at the host's GOMAXPROCS
}

// EvalCostReport is the machine-readable output of the evalcost
// experiment (BENCH_eval_baseline.json).
type EvalCostReport struct {
	ReportHeader
	Rows []EvalCostRow `json:"rows"`
}

// evalCounter runs cold RI-MP2 gradients — the vacuum path of
// potential.RIMP2 without a warm-start guess — and totals their SCF and
// Z-vector iterations and the RI metric directions their factors drop.
// It is a fragment.Evaluator, so the engine row runs it on every task of
// the step, concurrently.
type evalCounter struct {
	basis string

	mu        sync.Mutex
	scfIters  int
	zvecIters int
	dropped   int
}

// Evaluate implements fragment.Evaluator.
func (ec *evalCounter) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	bs, err := basis.Build(ec.basis, g)
	if err != nil {
		return 0, nil, err
	}
	ref, err := scf.RHF(g, bs, scf.Options{UseRI: true})
	if err != nil {
		return 0, nil, err
	}
	r, err := mp2.RIMP2(ref, mp2.Options{})
	if err != nil {
		return 0, nil, err
	}
	grad, _, err := r.Gradients()
	if err != nil {
		return 0, nil, err
	}
	ec.mu.Lock()
	ec.scfIters += ref.Iters
	ec.zvecIters += r.ZVecIters
	ec.dropped += ref.Dropped
	ec.mu.Unlock()
	return r.ETotal, grad, nil
}

// evalCase is one row's workload: run evaluates it on ec.
type evalCase struct {
	name  string
	basis string
	run   func(ec *evalCounter) error
}

// evalCases are the rows: one cold RI-MP2 gradient of the dzp water
// monomer, dimer and trimer and of the sto-3g trimer of the repository
// benchmark, and one cold MBE2 engine step of the dzp trimer on two
// workers: its three dimers (coefficient +1) and three monomers (−1) are
// six tasks. MBE3 would give every polymer but the trimer a zero
// coefficient and evaluate the trimer alone, which dzp-water3 already
// counts.
func evalCases() []evalCase {
	gradient := func(n int) func(*evalCounter) error {
		return func(ec *evalCounter) error {
			_, _, err := ec.Evaluate(molecule.WaterCluster(n))
			return err
		}
	}
	mbeStep := func(ec *evalCounter) error {
		g := molecule.WaterCluster(3)
		f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2})
		if err != nil {
			return err
		}
		eng, err := sched.New(f, ec, sched.Options{Workers: 2, Dt: 0.5 * chem.AtomicTimePerFs})
		if err != nil {
			return err
		}
		_, err = eng.Run(md.NewState(g.Clone()), 1, nil)
		return err
	}
	return []evalCase{
		{"dzp-water1", "dzp", gradient(1)},
		{"dzp-water2", "dzp", gradient(2)},
		{"dzp-water3", "dzp", gradient(3)},
		{"sto3g-water3", "sto-3g", gradient(3)},
		{"mbe2-dzp-water3-2w", "dzp", mbeStep},
	}
}

// RunEvalCost measures every row: the counts from one pass at
// GOMAXPROCS 1, after one untimed dzp monomer gradient that absorbs
// first-use allocations, then the seconds as the best of three cold
// evaluations, at GOMAXPROCS 1 and at the host's. On a shared 2-vCPU
// host one evaluation's time moves by up to 2× between passes.
func RunEvalCost(quick bool) (*EvalCostReport, error) {
	rep := &EvalCostReport{ReportHeader: newHeader(EvalCostSchema, quick)}
	cases := evalCases()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	if err := cases[0].run(&evalCounter{basis: cases[0].basis}); err != nil {
		return nil, fmt.Errorf("evalcost warm-up: %w", err)
	}
	// best is the fastest of three cold evaluations of c; runErr keeps
	// the first failure.
	var runErr error
	best := func(c evalCase) float64 {
		return bestOf(3, func() {
			if err := c.run(&evalCounter{basis: c.basis}); err != nil && runErr == nil {
				runErr = fmt.Errorf("evalcost %s: %w", c.name, err)
			}
		})
	}
	var ms runtime.MemStats
	for _, c := range cases {
		ec := &evalCounter{basis: c.basis}
		runtime.ReadMemStats(&ms)
		alloc0, flops0 := ms.TotalAlloc, linalg.FLOPs()
		if err := c.run(ec); err != nil {
			return nil, fmt.Errorf("evalcost %s: %w", c.name, err)
		}
		flops := linalg.FLOPs() - flops0
		runtime.ReadMemStats(&ms)
		rep.Rows = append(rep.Rows, EvalCostRow{Name: c.name, GemmFLOPs: flops, SCFIters: ec.scfIters,
			ZVecIters: ec.zvecIters, Dropped: ec.dropped, AllocMB: float64(ms.TotalAlloc-alloc0) / 1e6, Seconds1P: best(c)})
	}
	runtime.GOMAXPROCS(procs)
	for i, c := range cases {
		rep.Rows[i].Seconds = best(c)
	}
	if runErr != nil {
		return nil, runErr
	}
	return rep, nil
}

// CompareEvalCostReports gates current against baseline row by row:
// GEMM flops, SCF and Z-vector iterations and dropped directions must be
// equal, and allocated megabytes at most evalMBSlack above the
// baseline's. Seconds are not compared, and neither is maxRegressPct
// used: every gated number is a count, the same on every host. A count
// that fell fails too, worded as a gain to record in a regenerated
// baseline; one that rose is worded as a regression.
func CompareEvalCostReports(baseline, current *EvalCostReport, _ float64) []string {
	cur := make(map[string]EvalCostRow, len(current.Rows))
	for _, r := range current.Rows {
		cur[r.Name] = r
	}
	var bad []string
	for _, b := range baseline.Rows {
		r, ok := cur[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("evalcost row %s: in the baseline, not measured", b.Name))
			continue
		}
		for _, q := range []struct {
			what      string
			got, want int64
		}{
			{"GEMM flops", r.GemmFLOPs, b.GemmFLOPs},
			{"SCF iterations", int64(r.SCFIters), int64(b.SCFIters)},
			{"Z-vector iterations", int64(r.ZVecIters), int64(b.ZVecIters)},
			{"dropped metric directions", int64(r.Dropped), int64(b.Dropped)},
		} {
			switch {
			case q.got < q.want:
				bad = append(bad, fmt.Sprintf("evalcost row %s: %s fell %d → %d (−%.1f %%): regenerate BENCH_eval_baseline.json and quote this diff",
					b.Name, q.what, q.want, q.got, 100*float64(q.want-q.got)/float64(q.want)))
			case q.got > q.want:
				bad = append(bad, fmt.Sprintf("evalcost row %s: %s regressed %d → %d (+%d over the baseline)",
					b.Name, q.what, q.want, q.got, q.got-q.want))
			}
		}
		if ceil := b.AllocMB * (1 + evalMBSlack); r.AllocMB > ceil {
			bad = append(bad, fmt.Sprintf("evalcost row %s: %.1f MB allocated > ceiling %.1f (baseline %.1f, +%.0f%%)",
				b.Name, r.AllocMB, ceil, b.AllocMB, 100*evalMBSlack))
		}
	}
	return bad
}

// EvalCost prints what one cold RI-MP2 evaluation costs in portable
// counts and publishes the report (BENCH_eval_baseline.json, count gate).
func EvalCost(c *Config) {
	rep, err := RunEvalCost(c.Quick)
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.printf("Cold RI-MP2 gradient cost in portable counts (counts at GOMAXPROCS 1;\n")
	c.printf("seconds 1p and seconds: best of three at GOMAXPROCS 1 and %d)\n", runtime.GOMAXPROCS(0))
	c.printf("%-20s %12s %9s %10s %8s %10s %10s %9s\n",
		"row", "GEMM GFLOP", "SCF iter", "Z-vec iter", "dropped", "alloc MB", "seconds 1p", "seconds")
	for _, r := range rep.Rows {
		c.printf("%-20s %12.3f %9d %10d %8d %10.1f %10.3f %9.3f\n",
			r.Name, float64(r.GemmFLOPs)/1e9, r.SCFIters, r.ZVecIters, r.Dropped, r.AllocMB, r.Seconds1P, r.Seconds)
	}
	c.printf("\nGate: flops, iterations and dropped directions equal to the baseline,\n")
	c.printf("allocation at most %.0f%% above it; seconds are not gated.\n", 100*evalMBSlack)
	publish(c, rep, CompareEvalCostReports)
}
