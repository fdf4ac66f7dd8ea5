package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

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

// metricDropTol is the relative eigenvalue threshold under which the RI
// metric's directions are projected out, as scf.RHF factors it.
const metricDropTol = 1e-10

// EvalCostRow is what one cold RI-MP2 evaluation costs in counts that do
// not depend on the machine: GEMM flops, SCF and Z-vector iterations,
// dropped RI metric directions and megabytes allocated, all from one pass
// at GOMAXPROCS 1, plus the wall time of a second pass at the host's
// GOMAXPROCS, which is recorded but not gated.
type EvalCostRow struct {
	Name      string  `json:"name"` // "dzp-water3", "mbe3-dzp-water3-2w", stable across runs
	GemmFLOPs int64   `json:"gemm_flops"`
	SCFIters  int     `json:"scf_iters"`
	ZVecIters int     `json:"zvec_iters"`
	Dropped   int     `json:"dropped"`
	AllocMB   float64 `json:"alloc_mb"`
	Seconds   float64 `json:"seconds"`
}

// EvalCostReport is the machine-readable output of the evalcost
// experiment (BENCH_eval_baseline.json).
type EvalCostReport struct {
	ReportHeader
	Rows []EvalCostRow `json:"rows"`
}

// evalCounter runs cold RI-MP2 gradients — the vacuum path of
// potential.RIMP2 without a warm-start guess — and totals their SCF and
// Z-vector iterations, keeping each RI metric so the dropped directions
// can be counted after the measurement. It is a fragment.Evaluator, so
// the engine row runs it on every polymer, concurrently.
type evalCounter struct {
	basis string

	mu        sync.Mutex
	scfIters  int
	zvecIters int
	metrics   []*linalg.Mat
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
	ec.metrics = append(ec.metrics, ref.J2)
	ec.mu.Unlock()
	return r.ETotal, grad, nil
}

// dropped counts the metric directions linalg.MetricFactor projects out,
// summed over every evaluation so far.
func (ec *evalCounter) dropped() (int, error) {
	n := 0
	for _, j2 := range ec.metrics {
		_, d, err := linalg.MetricFactor(j2, metricDropTol)
		if err != nil {
			return 0, err
		}
		n += d
	}
	return n, nil
}

// evalCase is one row's workload: run evaluates it on ec.
type evalCase struct {
	name  string
	basis string
	run   func(ec *evalCounter) error
}

// evalCases are the rows: one cold RI-MP2 gradient of the dzp water
// monomer, dimer and trimer and of the sto-3g trimer of the repository
// benchmark, and one cold MBE3 engine step of the dzp trimer on two
// workers (three monomers, three dimers, one trimer).
func evalCases() []evalCase {
	gradient := func(n int) func(*evalCounter) error {
		return func(ec *evalCounter) error {
			_, _, err := ec.Evaluate(molecule.WaterCluster(n))
			return err
		}
	}
	mbeStep := func(ec *evalCounter) error {
		g := molecule.WaterCluster(3)
		f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{})
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
		{"mbe3-dzp-water3-2w", "dzp", mbeStep},
	}
}

// RunEvalCost measures every row: the counts at GOMAXPROCS 1, after one
// untimed dzp monomer gradient that absorbs first-use allocations, then
// the seconds at the host's GOMAXPROCS.
func RunEvalCost(quick bool) (*EvalCostReport, error) {
	rep := &EvalCostReport{ReportHeader: newHeader(EvalCostSchema, quick)}
	cases := evalCases()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	if err := cases[0].run(&evalCounter{basis: cases[0].basis}); err != nil {
		return nil, fmt.Errorf("evalcost warm-up: %w", err)
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
		row := EvalCostRow{Name: c.name, GemmFLOPs: flops, SCFIters: ec.scfIters, ZVecIters: ec.zvecIters,
			AllocMB: float64(ms.TotalAlloc-alloc0) / 1e6}
		var err error
		if row.Dropped, err = ec.dropped(); err != nil {
			return nil, fmt.Errorf("evalcost %s: metric factor: %w", c.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	runtime.GOMAXPROCS(procs)
	for i, c := range cases {
		start := time.Now()
		if err := c.run(&evalCounter{basis: c.basis}); err != nil {
			return nil, fmt.Errorf("evalcost %s: %w", c.name, err)
		}
		rep.Rows[i].Seconds = time.Since(start).Seconds()
	}
	return rep, nil
}

// CompareEvalCostReports gates current against baseline row by row:
// GEMM flops, SCF and Z-vector iterations and dropped directions must be
// equal, and allocated megabytes at most evalMBSlack above the
// baseline's. Seconds are not compared, and neither is maxRegressPct
// used: every gated number is a count, the same on every host.
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
			if q.got != q.want {
				bad = append(bad, fmt.Sprintf("evalcost row %s: %s %d, baseline %d", b.Name, q.what, q.got, q.want))
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
	c.printf("Cold RI-MP2 gradient cost in portable counts (counts at GOMAXPROCS 1,\n")
	c.printf("seconds at GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
	c.printf("%-20s %12s %9s %10s %8s %10s %9s\n",
		"row", "GEMM GFLOP", "SCF iter", "Z-vec iter", "dropped", "alloc MB", "seconds")
	for _, r := range rep.Rows {
		c.printf("%-20s %12.3f %9d %10d %8d %10.1f %9.3f\n",
			r.Name, float64(r.GemmFLOPs)/1e9, r.SCFIters, r.ZVecIters, r.Dropped, r.AllocMB, r.Seconds)
	}
	c.printf("\nGate: flops, iterations and dropped directions equal to the baseline,\n")
	c.printf("allocation at most %.0f%% above it; seconds are not gated.\n", 100*evalMBSlack)
	publish(c, rep, CompareEvalCostReports)
}
