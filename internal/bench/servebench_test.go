package bench

import (
	"strings"
	"testing"
)

func serveReport() *ServeBenchReport {
	return &ServeBenchReport{
		ReportHeader: ReportHeader{Schema: ServeBenchSchema, GoOS: "linux", GoArch: "amd64", NumCPU: 4},
		Jobs:         1000, Tenants: 4, StepsPerJob: 2, MaxActive: 4,
		WallSeconds: 3.2, JobsPerSec: 312.5,
		P50Ms: 2900, P99Ms: 3100, FairnessRatio: 1.05,
		DrainInterrupted: 25, DrainResumed: 25,
	}
}

// The comparator's three gates: p50 up, p99 up, throughput down — each
// beyond tolerance must be flagged; within tolerance must pass.
func TestCompareServeReports(t *testing.T) {
	base := serveReport()

	ok := *base
	ok.P50Ms *= 1.2
	ok.P99Ms *= 1.2
	ok.JobsPerSec *= 0.85
	if viol := CompareServeReports(base, &ok, 25); len(viol) != 0 {
		t.Fatalf("within-tolerance report flagged: %v", viol)
	}

	cases := []struct {
		name   string
		mutate func(*ServeBenchReport)
		want   string
	}{
		{"p50", func(r *ServeBenchReport) { r.P50Ms *= 1.5 }, "p50 latency regressed"},
		{"p99", func(r *ServeBenchReport) { r.P99Ms *= 1.5 }, "p99 latency regressed"},
		{"throughput", func(r *ServeBenchReport) { r.JobsPerSec *= 0.5 }, "throughput regressed"},
	}
	for _, c := range cases {
		cur := *base
		c.mutate(&cur)
		viol := CompareServeReports(base, &cur, 25)
		if len(viol) != 1 || !strings.Contains(viol[0], c.want) {
			t.Errorf("%s: got %v, want one violation containing %q", c.name, viol, c.want)
		}
	}
}
