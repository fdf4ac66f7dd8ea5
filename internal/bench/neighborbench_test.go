package bench

import (
	"math"
	"testing"
)

func syntheticNeighborReport(exponent float64) *NeighborBenchReport {
	return &NeighborBenchReport{
		ReportHeader: ReportHeader{Schema: NeighborBenchSchema}, Exponent: exponent,
		Rows: []NeighborBenchRow{{Name: "water-3x3x3", Monomers: 27, Atoms: 81, EnumSeconds: 1e-4}},
	}
}

func TestCompareNeighborReports(t *testing.T) {
	base := syntheticNeighborReport(1.0)

	// Identical run: clean.
	if bad := CompareNeighborReports(base, syntheticNeighborReport(1.0), 25); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	// Within tolerance: exponent +20 %.
	if bad := CompareNeighborReports(base, syntheticNeighborReport(1.2), 25); len(bad) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", bad)
	}
	// Exponent blown past the ceiling (quadratic re-regression).
	if bad := CompareNeighborReports(base, syntheticNeighborReport(2.0), 25); len(bad) != 1 {
		t.Fatalf("exponent regression not flagged: %v", bad)
	}
}

func TestFitLogLogSlope(t *testing.T) {
	// Exact power laws recover their exponent.
	for _, p := range []float64{1, 1.5, 2} {
		var xs, ys []float64
		for _, x := range []float64{10, 20, 40, 80} {
			xs = append(xs, x)
			ys = append(ys, 3*math.Pow(x, p))
		}
		if got := fitLogLogSlope(xs, ys); math.Abs(got-p) > 1e-12 {
			t.Errorf("slope of x^%g: got %g", p, got)
		}
	}
	if got := fitLogLogSlope([]float64{10}, []float64{1}); got != 0 {
		t.Errorf("degenerate fit: got %g, want 0", got)
	}
}

// The real sweep, shrunk: the smallest two quick sizes must produce a
// sane report — positive times and a fitted exponent far below
// quadratic. This is the O(N) acceptance test's
// in-process form; CI additionally runs the full quick sweep through
// cmd/mbebench with the committed baseline.
func TestRunNeighborSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is timing-heavy; run without -short")
	}
	rep := RunNeighborSuite(true)
	if len(rep.Rows) < 3 {
		t.Fatalf("sweep has %d sizes, want ≥ 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.EnumSeconds <= 0 {
			t.Errorf("%s: non-positive timing %+v", row.Name, row)
		}
	}
	if rep.Exponent <= 0 || rep.Exponent > 1.8 {
		t.Errorf("fitted exponent %.3f is not plausibly sub-quadratic", rep.Exponent)
	}
}
