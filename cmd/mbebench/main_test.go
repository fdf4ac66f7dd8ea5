package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/bench"
)

// -list must enumerate every registered experiment and exit 0.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, e := range bench.Experiments {
		if !strings.Contains(s, e.Name) {
			t.Errorf("-list missing experiment %q", e.Name)
		}
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

// -cpuprofile writes a profile of the experiments it wraps (a gzipped
// protocol buffer, as go tool pprof reads it); a path that cannot be
// created exits 1 before anything runs.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var out, errOut bytes.Buffer
	if code := run([]string{"-cpuprofile", path, "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Errorf("-cpuprofile wrote %d bytes without the gzip header of a pprof profile", len(data))
	}
	out.Reset()
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if code := run([]string{"-cpuprofile", bad, "table1"}, &out, &errOut); code != 1 || out.Len() != 0 {
		t.Errorf("uncreatable -cpuprofile: exit code %d, output %q; want 1 and nothing run", code, out.String())
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

// Bad usage paths: no args, unknown experiments and -jitter outside
// [0, 1) exit 2; -h exits 0.
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
	for _, j := range []string{"2", "-0.1", "1", "NaN"} {
		errOut.Reset()
		if code := run([]string{"-jitter", j, "fig8"}, &out, &errOut); code != 2 {
			t.Errorf("-jitter %s exit code %d, want 2", j, code)
		}
		if !strings.Contains(errOut.String(), "outside [0, 1)") {
			t.Errorf("-jitter %s: missing range diagnostic, stderr: %s", j, errOut.String())
		}
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
	rep := &bench.GemmBenchReport{}
	if err := bench.LoadReport(jsonPath, bench.GemmBenchSchema, rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Rows {
		rep.Rows[i].GFLOPS = 0
	}
	basePath := dir + "/baseline.json"
	if err := bench.WriteReport(basePath, rep); err != nil {
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
