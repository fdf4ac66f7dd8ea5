package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestGemmReportRoundTrip(t *testing.T) {
	checkRoundTrip(t, GemmBenchSchema, syntheticReport(8))
}

func TestLoadGemmReportRejectsBadSchema(t *testing.T) {
	checkRejectsBadSchema(t, GemmBenchSchema, syntheticReport(8))
}

func TestNeighborReportRoundTrip(t *testing.T) {
	checkRoundTrip(t, NeighborBenchSchema, syntheticNeighborReport(1.05))
	checkRejectsBadSchema(t, NeighborBenchSchema, syntheticNeighborReport(1.05))
}

func TestServeReportRoundTrip(t *testing.T) {
	checkRoundTrip(t, ServeBenchSchema, serveReport())
}

func TestLoadServeReportRejectsBadSchema(t *testing.T) {
	checkRejectsBadSchema(t, ServeBenchSchema, serveReport())
}

// checkRoundTrip asserts rep survives WriteReport → LoadReport unchanged.
func checkRoundTrip(t *testing.T, schema string, rep Report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got := emptyLike(rep)
	if err := LoadReport(path, schema, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

// checkRejectsBadSchema asserts LoadReport refuses rep once its schema is
// not the wanted one, naming the schema in the error.
func checkRejectsBadSchema(t *testing.T, schema string, rep Report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.json")
	rep.header().Schema = "something-else/v9"
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := LoadReport(path, schema, emptyLike(rep)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale schema accepted: %v", err)
	}
}

// emptyLike returns a new zero report of rep's concrete type.
func emptyLike(rep Report) Report {
	return reflect.New(reflect.TypeOf(rep).Elem()).Interface().(Report)
}

// The committed baselines load under their schema, carry their machine
// header, and pass their own gate at zero tolerance.
func TestCommittedBaselinesLoad(t *testing.T) {
	selfGate(t, "BENCH_baseline.json", GemmBenchSchema, CompareGemmReports)
	selfGate(t, "BENCH_neighbor_baseline.json", NeighborBenchSchema, CompareNeighborReports)
	selfGate(t, "BENCH_eval_baseline.json", EvalCostSchema, CompareEvalCostReports)
	selfGate(t, "BENCH_serve_baseline.json", ServeBenchSchema, CompareServeReports)
}

func selfGate[R any, P interface {
	*R
	Report
}](t *testing.T, file, schema string, compare func(baseline, current P, maxRegressPct float64) []string) {
	t.Helper()
	rep := P(new(R))
	if err := LoadReport(filepath.Join("..", "..", file), schema, rep); err != nil {
		t.Fatal(err)
	}
	if h := rep.header(); h.GoOS == "" || h.GoArch == "" || h.NumCPU <= 0 {
		t.Errorf("%s: machine header missing: %+v", file, *h)
	}
	if viol := compare(rep, rep, 0); len(viol) != 0 {
		t.Errorf("%s fails its own gate: %v", file, viol)
	}
}
