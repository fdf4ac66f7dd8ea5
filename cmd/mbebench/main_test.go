package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/bench"
)

// -list must enumerate every registered experiment, including the
// warm-start ablation, and exit 0.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, e := range experiments {
		if !strings.Contains(s, e.name) {
			t.Errorf("-list missing experiment %q", e.name)
		}
	}
	if !strings.Contains(s, "warmstart") {
		t.Error("-list missing the warmstart experiment")
	}
}

// Smoke: a cheap experiment must produce a non-empty framed report.
func TestRunTable1(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"==== table1 ====", "Table I", "done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// The table2 alias must resolve to the fig1 experiment.
func TestRunTable2Alias(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"table2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Error("table2 alias did not run the Fig. 1 / Table II experiment")
	}
}

// Bad usage paths: no args and unknown experiments exit 2; -h exits 0.
func TestRunUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no-args exit code %d, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h exit code %d, want 0", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown-flag exit code %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"nonsense"}, &out, &errOut); code != 2 {
		t.Errorf("unknown-experiment exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Error("missing unknown-experiment diagnostic")
	}
}

// The gemm experiment must write the JSON report, gate against a
// baseline, and turn regressions into exit 1. Slow (runs real GEMMs),
// so skipped under -short.
func TestRunGemmBenchFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("gemm microbenchmarks are slow; run without -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_gemm.json"

	var out, errOut bytes.Buffer
	if code := run([]string{"-bench-json", jsonPath, "gemm"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "asm/go") {
		t.Error("gemm table missing from output")
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(data), "\"tracked\": true") {
		t.Error("report has no tracked rows")
	}

	// A rerun against a baseline derived from this report passes: every
	// rate is zeroed, so no timing floor can fire and no ratio gate has a
	// reference — the rerun is checked for its flow and its tracked rows,
	// not for the speed of a loaded machine.
	rep, err := bench.LoadGemmReport(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Rows {
		rep.Rows[i].GFLOPS = 0
	}
	basePath := dir + "/baseline.json"
	if err := rep.WriteJSON(basePath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", basePath, "gemm"}, &out, &errOut); code != 0 {
		t.Fatalf("rerun against the derived baseline: exit %d, stderr: %s", code, errOut.String())
	}

	// An impossible baseline must fail the run with exit 1.
	inflated := strings.ReplaceAll(string(data), "\"gflops\": ", "\"gflops\": 99")
	badPath := dir + "/inflated.json"
	if err := os.WriteFile(badPath, []byte(inflated), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", badPath, "gemm"}, &out, &errOut); code != 1 {
		t.Fatalf("inflated baseline: exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "regressed") {
		t.Errorf("missing regression diagnostic: %s", errOut.String())
	}
}
