package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/linalg"
)

func syntheticReport(gflops float64) *GemmBenchReport {
	return &GemmBenchReport{
		ReportHeader: ReportHeader{Schema: GemmBenchSchema, GoOS: "linux", GoArch: "amd64", NumCPU: 1, Quick: true},
		Rows: []GemmBenchRow{
			{Name: "square-256", M: 256, K: 256, N: 256, Kernel: "packed", Seconds: 1, GFLOPS: gflops, Tracked: true},
			{Name: "square-256", M: 256, K: 256, N: 256, Kernel: "stream-NN", Seconds: 1, GFLOPS: gflops / 2, Tracked: true},
			{Name: "small-24", M: 24, K: 24, N: 24, Kernel: "packed", Seconds: 1, GFLOPS: 1, Tracked: false},
		},
	}
}

func TestCompareGemmReports(t *testing.T) {
	base := syntheticReport(8)

	// Identical run: no regressions.
	if bad := CompareGemmReports(base, syntheticReport(8), 25); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	// 20 % drop within a 25 % tolerance: still fine.
	if bad := CompareGemmReports(base, syntheticReport(6.4), 25); len(bad) != 0 {
		t.Fatalf("within-tolerance drop flagged: %v", bad)
	}
	// 50 % drop: both tracked rows must be flagged.
	bad := CompareGemmReports(base, syntheticReport(4), 25)
	if len(bad) != 2 {
		t.Fatalf("want 2 regressions, got %v", bad)
	}
	if !strings.Contains(bad[0], "regressed") {
		t.Fatalf("unhelpful message: %q", bad[0])
	}
	// Tracked row missing from current: flagged.
	cur := syntheticReport(8)
	cur.Rows = cur.Rows[1:]
	bad = CompareGemmReports(base, cur, 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("want 1 missing-row violation, got %v", bad)
	}
	// Untracked rows are never gated.
	cur = syntheticReport(8)
	cur.Rows[2].GFLOPS = 0.01
	if bad := CompareGemmReports(base, cur, 25); len(bad) != 0 {
		t.Fatalf("untracked row gated: %v", bad)
	}
}

// The packed/stream-NN ratio gate must catch an engine regression that
// absolute floors miss because the current machine is much faster than
// the baseline one.
func TestCompareGemmReportsRatioGate(t *testing.T) {
	base := syntheticReport(8) // packed 8, stream-NN 4 → ratio 2.0

	// Faster machine, healthy engine: packed 40, NN 20 → ratio 2.0. OK.
	cur := syntheticReport(40)
	if bad := CompareGemmReports(base, cur, 25); len(bad) != 0 {
		t.Fatalf("healthy fast machine flagged: %v", bad)
	}

	// Faster machine, broken packed engine: packed 20, NN 20 → ratio
	// 1.0, half the baseline ratio. Both absolute floors pass (20 ≫ 8),
	// only the ratio gate can fire.
	cur = syntheticReport(40)
	cur.Rows[0].GFLOPS = 20
	bad := CompareGemmReports(base, cur, 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "ratio regressed") {
		t.Fatalf("want 1 ratio violation, got %v", bad)
	}
}

// The packed-asm/packed ratio row is the acceptance bar for the
// assembly microkernel: a baseline recording a 4.5× asm speedup must
// reject a current run where the asm kernel collapsed to parity with
// the portable one, even when absolute GFLOP/s floors are cleared.
func asmSyntheticReport(goGF, asmGF float64) *GemmBenchReport {
	return &GemmBenchReport{
		ReportHeader: ReportHeader{Schema: GemmBenchSchema, GoOS: "linux", GoArch: "amd64", NumCPU: 1, Quick: true},
		CPUFeatures:  "avx fma avx2", MicroKernel: "avx2-6x8",
		Rows: []GemmBenchRow{
			{Name: "square-256", M: 256, K: 256, N: 256, Kernel: "packed", Seconds: 1, GFLOPS: goGF, Tracked: true},
			{Name: "square-256", M: 256, K: 256, N: 256, Kernel: "packed-asm", Seconds: 1, GFLOPS: asmGF, Tracked: true},
		},
	}
}

func TestCompareGemmReportsAsmRatioGate(t *testing.T) {
	base := asmSyntheticReport(6.5, 29.25) // asm/go = 4.5×

	// Faster machine, same architecture of speedup: fine.
	if bad := CompareGemmReports(base, asmSyntheticReport(13, 58.5), 25); len(bad) != 0 {
		t.Fatalf("healthy fast machine flagged: %v", bad)
	}
	// Much faster machine but the asm kernel regressed to parity with
	// the portable one: absolute floors all pass, only the
	// packed-asm/packed ratio gate can fire.
	bad := CompareGemmReports(base, asmSyntheticReport(40, 44), 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "packed-asm/packed ratio regressed") {
		t.Fatalf("want 1 asm ratio violation, got %v", bad)
	}
}

// The metric factor is gated on its same-run speedup over EigSym of the
// same matrix: a faster machine on which the factor fell back
// to the eigen-route's speed clears the absolute floor and must still fail.
func TestCompareGemmReportsMetricFactorRatioGate(t *testing.T) {
	report := func(factorGF, eigGF float64) *GemmBenchReport {
		return &GemmBenchReport{ReportHeader: ReportHeader{Schema: GemmBenchSchema}, Rows: []GemmBenchRow{
			{Name: "aux-414", M: 414, K: 414, N: 414, Kernel: "metricfactor", Seconds: 1, GFLOPS: factorGF, Tracked: true},
			{Name: "aux-414", M: 414, K: 414, N: 414, Kernel: "eigsym", Seconds: 1, GFLOPS: eigGF},
		}}
	}
	base := report(40, 5) // 8×
	if bad := CompareGemmReports(base, report(80, 10), 25); len(bad) != 0 {
		t.Fatalf("healthy fast machine flagged: %v", bad)
	}
	bad := CompareGemmReports(base, report(45, 15), 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "metricfactor/eigsym ratio regressed") {
		t.Fatalf("want 1 metricfactor/eigsym ratio violation, got %v", bad)
	}
}

// The three-centre derivative pass is gated on its same-run speedup over
// the direct four-centre Fock build on the same trimer: a faster machine
// on which the derivative kernel fell back to its old speed clears the
// absolute floor and must still fail.
func TestCompareGemmReportsDeriv3cRatioGate(t *testing.T) {
	report := func(derivGF, fockGF float64) *GemmBenchReport {
		return &GemmBenchReport{ReportHeader: ReportHeader{Schema: GemmBenchSchema}, Rows: []GemmBenchRow{
			{Name: "water3", M: 21, K: 414, N: 21, Kernel: "deriv3c", Seconds: 1, GFLOPS: derivGF, Tracked: true},
			{Name: "water3", M: 21, K: 414, N: 21, Kernel: "fockdirect", Seconds: 1, GFLOPS: fockGF},
		}}
	}
	base := report(0.06, 0.02) // 3×
	if bad := CompareGemmReports(base, report(0.12, 0.04), 25); len(bad) != 0 {
		t.Fatalf("healthy fast machine flagged: %v", bad)
	}
	bad := CompareGemmReports(base, report(0.09, 0.06), 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "deriv3c/fockdirect ratio regressed") {
		t.Fatalf("want 1 deriv3c/fockdirect ratio violation, got %v", bad)
	}
}

// The real suite: structure, JSON emission and self-consistency. Slow
// (runs actual GEMMs), so skipped under -short.
func TestRunGemmSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("GEMM suite is slow; run without -short")
	}
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "BENCH_gemm.json")
	c := &Config{Quick: true, Out: &out, BenchJSON: path}
	GemmBench(c)
	if len(c.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", c.Failures)
	}
	rep := &GemmBenchReport{}
	if err := LoadReport(path, GemmBenchSchema, rep); err != nil {
		t.Fatal(err)
	}
	// 5 shapes × (4 streaming + packed, plus packed-asm when a native
	// microkernel ran) + the end-to-end RI-MP2 pair (blocked, pairloop)
	// and the four step-phase rows in quick mode.
	engines := 5
	wantKernels := []string{"stream-NN", "stream-NT", "stream-TN", "stream-TT", "packed", "blocked", "pairloop", "metricfactor", "eigsym", "deriv3c", "fockdirect"}
	trackedPerShape := 2 // stream-NN, packed
	if linalg.AsmEnabled() {
		engines++
		wantKernels = append(wantKernels, "packed-asm")
		trackedPerShape++
	}
	if want := 5*engines + 2 + 4; len(rep.Rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(rep.Rows))
	}
	kernels := map[string]bool{}
	tracked := 0
	for _, row := range rep.Rows {
		if row.GFLOPS <= 0 || row.Seconds <= 0 {
			t.Fatalf("non-positive measurement: %+v", row)
		}
		kernels[row.Kernel] = true
		if row.Tracked {
			tracked++
		}
	}
	for _, k := range wantKernels {
		if !kernels[k] {
			t.Fatalf("kernel %s missing from report", k)
		}
	}
	// Tracked: stream-NN + every packed engine for each of the three
	// tracked GEMM shapes, plus the blocked engine of the
	// end-to-end RI-MP2 row and two step-phase rows (metricfactor and
	// deriv3c; eigsym and fockdirect are only their same-run references).
	if want := 3*trackedPerShape + 1 + 2; tracked != want {
		t.Fatalf("want %d tracked rows, got %d", want, tracked)
	}
	if rep.MicroKernel == "" {
		t.Fatal("report missing microkernel provenance")
	}
	if !strings.Contains(out.String(), "asm/go") {
		t.Fatal("human-readable table missing")
	}
	if !strings.Contains(out.String(), "gemm microkernel: ") {
		t.Fatal("microkernel provenance line missing from output")
	}
	// A fresh run passes the gate against a baseline derived from this
	// report with every rate zeroed: no timing floor can fire and no
	// ratio gate has a reference, so the rerun is checked for its flow
	// and its tracked rows, not for the speed of a loaded machine.
	for i := range rep.Rows {
		rep.Rows[i].GFLOPS = 0
	}
	basePath := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteReport(basePath, rep); err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	c2 := &Config{Quick: true, Out: &out2, Baseline: basePath}
	GemmBench(c2)
	if len(c2.Failures) != 0 {
		t.Fatalf("self-comparison failed: %v", c2.Failures)
	}
}
