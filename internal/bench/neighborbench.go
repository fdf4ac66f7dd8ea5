package bench

import (
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
)

// NeighborBenchSchema identifies the BENCH_neighbor.json layout; bump on
// incompatible changes so the CI comparator can refuse stale baselines.
const NeighborBenchSchema = "fragmd-bench-neighbor/v1"

// NeighborBenchRow is one water-box size point of the scaling sweep.
type NeighborBenchRow struct {
	Name     string `json:"name"` // "water-4x4x4", stable across runs
	Monomers int    `json:"monomers"`
	Atoms    int    `json:"atoms"`
	// EnumSeconds is the cell-list Terms() wall time (monomer/dimer/
	// trimer enumeration under cutoffs), best of reps.
	EnumSeconds float64 `json:"enum_seconds"`
	// BruteEnumSeconds is the same Terms() through the O(N²)/O(N³)
	// direct-scan oracle, measured only up to bruteCap monomers
	// (0 = skipped at this size).
	BruteEnumSeconds float64 `json:"brute_enum_seconds,omitempty"`
}

// NeighborBenchReport is the machine-readable output of the neighbor
// scaling sweep — the O(N) acceptance artifact for the cell-list path.
type NeighborBenchReport struct {
	ReportHeader
	// Exponent is the log-log least-squares slope of the cell-list
	// enumeration wall time (EnumSeconds) versus monomer count. O(N)
	// enumeration means ≈ 1; the absolute gate is NeighborMaxExponent,
	// applied on every run.
	Exponent float64 `json:"exponent"`
	// Speedup is cell-list vs brute total enumeration time at the
	// largest size the brute oracle was measured on — a same-run ratio,
	// so it stays meaningful across machine classes and is the
	// baseline-gated signal.
	Speedup float64            `json:"speedup"`
	Rows    []NeighborBenchRow `json:"rows"`
}

// NeighborMaxExponent is the absolute ceiling on the fitted scaling
// exponent: a quadratic re-regression (exponent → 2) fails loudly, while
// honest O(N) with constant-factor noise stays well under it.
const NeighborMaxExponent = 1.2

// bruteCap bounds the sizes the O(N²) oracle is timed on, so the sweep
// itself stays linear-time-dominated.
const bruteCap = 600

// neighborBenchSizes returns the water-box edge counts (monomers = n³).
func neighborBenchSizes(quick bool) []int {
	if quick {
		return []int{3, 4, 5, 6, 7}
	}
	return []int{4, 5, 6, 8, 10, 12}
}

// neighborOpts is the sweep's fragmentation configuration: periodic
// water boxes under chemically sensible finite cutoffs, so enumeration
// is the cell-list O(N) regime the gate certifies.
func neighborOpts(brute bool) fragment.Options {
	return fragment.Options{
		DimerCutoff:  6 * chem.BohrPerAngstrom,
		TrimerCutoff: 4 * chem.BohrPerAngstrom,
		Brute:        brute,
	}
}

// RunNeighborSuite executes the neighbor scaling sweep and returns the
// report.
func RunNeighborSuite(quick bool) *NeighborBenchReport {
	rep := &NeighborBenchReport{ReportHeader: newHeader(NeighborBenchSchema, quick)}
	reps := 3
	var ns, ts []float64 // monomer counts and cell-list times for the fit
	for _, n := range neighborBenchSizes(quick) {
		g := molecule.WaterBox(n, n, n, 1)
		row := NeighborBenchRow{
			Name:     fmt.Sprintf("water-%dx%dx%d", n, n, n),
			Monomers: n * n * n,
			Atoms:    g.N(),
		}
		f, err := fragment.ByMolecule(g, 3, 1, neighborOpts(false))
		if err != nil {
			panic(err) // builders are deterministic; this cannot fail
		}
		row.EnumSeconds = bestOf(reps, func() { f.Terms() })
		if row.Monomers <= bruteCap {
			fb, err := fragment.ByMolecule(g, 3, 1, neighborOpts(true))
			if err != nil {
				panic(err)
			}
			row.BruteEnumSeconds = bestOf(reps, func() { fb.Terms() })
			if row.EnumSeconds > 0 {
				rep.Speedup = row.BruteEnumSeconds / row.EnumSeconds
			}
		}
		ns = append(ns, float64(row.Monomers))
		ts = append(ts, row.EnumSeconds)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Exponent = fitLogLogSlope(ns, ts)
	return rep
}

// fitLogLogSlope is the least-squares slope of ln(y) against ln(x) —
// the empirical scaling exponent of the sweep.
func fitLogLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// CompareNeighborReports gates current against baseline on the two
// machine-portable signals: the fitted scaling exponent must not exceed
// the baseline's by more than maxRegressPct percent (catching a slow
// slide back toward quadratic before the absolute ceiling trips), and
// the same-run cell-vs-brute speedup must not fall more than
// maxRegressPct percent below the baseline's. Absolute seconds are
// deliberately not compared — they only measure the runner.
func CompareNeighborReports(baseline, current *NeighborBenchReport, maxRegressPct float64) []string {
	var bad []string
	if baseline.Exponent > 0 {
		ceil := baseline.Exponent * (1 + maxRegressPct/100)
		if current.Exponent > ceil {
			bad = append(bad, fmt.Sprintf("scaling exponent regressed: %.3f > ceiling %.3f (baseline %.3f, tolerance %.0f%%)",
				current.Exponent, ceil, baseline.Exponent, maxRegressPct))
		}
	}
	if baseline.Speedup > 0 && current.Speedup > 0 {
		floor := baseline.Speedup * (1 - maxRegressPct/100)
		if current.Speedup < floor {
			bad = append(bad, fmt.Sprintf("cell-vs-brute speedup regressed: %.2fx < floor %.2fx (baseline %.2fx, tolerance %.0f%%)",
				current.Speedup, floor, baseline.Speedup, maxRegressPct))
		}
	}
	return bad
}

// NeighborBench runs the cell-list scaling sweep, prints the wall-time
// table with the fitted exponent, applies the absolute O(N) gate, and
// publishes the report (BENCH_neighbor.json, baseline gate).
func NeighborBench(c *Config) {
	rep := RunNeighborSuite(c.Quick)
	c.printf("Cell-list neighbor enumeration scaling (periodic water boxes;\n")
	c.printf("dimer cut 6 Å, trimer cut 4 Å; best of reps)\n")
	c.printf("%-14s %9s %7s  %11s %11s %9s\n",
		"box", "monomers", "atoms", "enum (s)", "brute (s)", "speedup")
	for _, row := range rep.Rows {
		brute, speed := "-", "-"
		if row.BruteEnumSeconds > 0 {
			brute = fmt.Sprintf("%11.5f", row.BruteEnumSeconds)
			speed = fmt.Sprintf("%8.2fx", row.BruteEnumSeconds/row.EnumSeconds)
		}
		c.printf("%-14s %9d %7d  %11.5f %11s %9s\n",
			row.Name, row.Monomers, row.Atoms, row.EnumSeconds, brute, speed)
	}
	c.printf("\nfitted exponent: t ∝ N^%.3f (gate: ≤ %.1f; O(N) cell list ≈ 1, quadratic scan = 2)\n",
		rep.Exponent, NeighborMaxExponent)
	c.printf("\nShape to verify: cell-list enumeration grows ~linearly in\n")
	c.printf("monomer count while the brute oracle pulls away quadratically — the\n")
	c.printf("re-regression this gate exists to catch.\n")

	if rep.Exponent > NeighborMaxExponent {
		c.fail(fmt.Sprintf("neighbor enumeration scaling exponent %.3f exceeds %.1f — the cell-list path has gone super-linear",
			rep.Exponent, NeighborMaxExponent))
	}
	publish(c, rep, CompareNeighborReports)
}
