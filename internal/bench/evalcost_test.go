package bench

import (
	"strings"
	"testing"
)

// The evalcost gate: every count but allocation must be equal, and
// allocation may grow by at most evalMBSlack; seconds and the
// -max-regress tolerance play no part.
func TestCompareEvalCostReports(t *testing.T) {
	row := EvalCostRow{Name: "dzp-water3", GemmFLOPs: 41812044512, SCFIters: 19, ZVecIters: 15,
		Dropped: 36, AllocMB: 355.5, Seconds: 2.7}
	report := func(edit func(*EvalCostRow)) *EvalCostReport {
		r := row
		edit(&r)
		return &EvalCostReport{ReportHeader: newHeader(EvalCostSchema, true), Rows: []EvalCostRow{r}}
	}
	base := report(func(*EvalCostRow) {})
	for _, c := range []struct {
		name string
		edit func(*EvalCostRow)
		want string // "" = clean
	}{
		{"identical", func(*EvalCostRow) {}, ""},
		{"slower, fewer MB", func(r *EvalCostRow) { r.Seconds *= 10; r.AllocMB *= 0.5 }, ""},
		{"MB inside the slack", func(r *EvalCostRow) { r.AllocMB *= 1.09 }, ""},
		{"MB past the slack", func(r *EvalCostRow) { r.AllocMB *= 1.11 }, "MB allocated"},
		{"one more SCF iteration", func(r *EvalCostRow) { r.SCFIters++ }, "SCF iterations regressed 19 → 20"},
		{"one fewer Z-vector iteration", func(r *EvalCostRow) { r.ZVecIters-- }, "Z-vector iterations fell 15 → 14"},
		{"a doubled GEMM", func(r *EvalCostRow) { r.GemmFLOPs += 1 << 20 }, "GEMM flops"},
		{"a dropped direction more", func(r *EvalCostRow) { r.Dropped++ }, "dropped metric directions"},
		{"row missing", func(r *EvalCostRow) { r.Name = "other" }, "not measured"},
	} {
		bad := CompareEvalCostReports(base, report(c.edit), 1000)
		switch {
		case c.want == "" && len(bad) != 0:
			t.Errorf("%s: flagged %v", c.name, bad)
		case c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)):
			t.Errorf("%s: got %v, want one violation naming %q", c.name, bad, c.want)
		}
	}
}

// Both directions of a count change fail the gate, but the message says
// which way it moved: a fall asks for a regenerated baseline, a rise is
// a regression.
func TestCompareEvalCostReportsNamesDirection(t *testing.T) {
	report := func(flops int64) *EvalCostReport {
		return &EvalCostReport{ReportHeader: newHeader(EvalCostSchema, true),
			Rows: []EvalCostRow{{Name: "dzp-water3", GemmFLOPs: flops, AllocMB: 100}}}
	}
	base := report(40_000_000_000)
	for _, c := range []struct {
		name  string
		flops int64
		want  string
	}{
		{"fall", 30_000_000_000, "evalcost row dzp-water3: GEMM flops fell 40000000000 → 30000000000 (−25.0 %): regenerate BENCH_eval_baseline.json and quote this diff"},
		{"rise", 40_000_000_100, "evalcost row dzp-water3: GEMM flops regressed 40000000000 → 40000000100 (+100 over the baseline)"},
	} {
		bad := CompareEvalCostReports(base, report(c.flops), 1000)
		if len(bad) != 1 || bad[0] != c.want {
			t.Errorf("%s: got %q, want [%q]", c.name, bad, c.want)
		}
	}
}
