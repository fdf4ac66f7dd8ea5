package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySize shrinks every workload to seconds of work: water dimer MBE2
// for one step, a 27-molecule box for five, six serve jobs.
var toySize = sizing{waters: 2, maxOrder: 2, box: 3, setupReps: 1, maxTraced: 100,
	rimp2Steps: 1, ljSteps: 5, jobs: 6}

// contract mirrors the parts of BENCHMARK.json the program must honour.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// inCheckout runs the test from the repository root, where the program
// expects to be started, with its scratch space in a test directory.
func inCheckout(t *testing.T) contract {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(wd, "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json is read from the working directory; .bench_build
	// is created there too, so work in a scratch copy of the root.
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	return c
}

// lastLine decodes the final stdout line of a single-workload run.
func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// TestSmokeAndSchema runs every workload at toy size through the real
// entry point — untraced and traced — and holds the emitted metric
// names and units against BENCHMARK.json. It also is the clean-exit
// test: realMain refuses to return success while a goroutine, the
// listener or the server's state directory is still around, and the
// scratch directory must be empty of server state afterwards.
func TestSmokeAndSchema(t *testing.T) {
	c := inCheckout(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range c.EndToEnd {
		want[0][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, names := range want {
		for n, unit := range names {
			if !name.MatchString(n) || unit == "" {
				t.Errorf("metric %q (unit %q): bad name or missing unit", n, unit)
			}
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}

	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why == "" {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, c.Workloads[i].Name, w.name)
		}
		for trace, names := range want {
			// The two RI-MP2 workloads share their code; -short runs the
			// cold one traced and the warm one untraced to stay under 15 s.
			if testing.Short() && ((w.name == "water3-rimp2-cold" && trace == 0) || (w.name == "water3-rimp2-warm" && trace == 1)) {
				continue
			}
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", []string{"0", "1"}[trace]}
			if code := realMain(args, &stdout, &stderr, toySize, 10*time.Minute); code != 0 {
				t.Fatalf("%s trace=%d: exit code %d\n%s", w.name, trace, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if c, ok := r.Metrics["replay.coverage_frac"]; ok && c.Value > 0 {
				t.Logf("%s: replay.coverage_frac %.3f", w.name, c.Value)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(names) {
				t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json lists %d", w.name, trace, len(r.Metrics), len(names))
			}
			for n, unit := range names {
				got, ok := r.Metrics[n]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s: emitted unit %q (present=%v), BENCHMARK.json says %q", w.name, trace, n, got.Unit, ok, unit)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, got.Value)
				}
			}
		}
	}

	if left, _ := filepath.Glob(".bench_build/run-*"); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	spans, _ := filepath.Glob(".bench_build/trace/*.spans.json")
	wantSpans := len(workloads)
	if testing.Short() {
		wantSpans--
	}
	if len(spans) != wantSpans {
		t.Errorf("%d span files written, want %d: %v", len(spans), wantSpans, spans)
	}
	for _, path := range spans {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Names []string  `json:"names"`
			Spans [][]int64 `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 || len(doc.Names) == 0 {
			t.Errorf("%s: not a span file (%v)", path, err)
		}
	}
}

// TestWatchdog: a run that outlives its cap must end with a non-zero
// exit code instead of hanging. The watchdog calls os.Exit, so the run
// happens in a child copy of the test binary.
func TestWatchdog(t *testing.T) {
	if os.Getenv("BENCHMARK_WATCHDOG_CHILD") == "1" {
		os.Exit(realMain([]string{"-workload", "water3-rimp2-cold", "-seconds", "1"}, os.Stdout, os.Stderr, fullSize, 50*time.Millisecond))
	}
	inCheckout(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdog$")
	cmd.Env = append(os.Environ(), "BENCHMARK_WATCHDOG_CHILD=1")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 3 {
		t.Fatalf("child ended with %v, want exit code 3\n%s", err, out)
	}
	if !strings.Contains(string(out), "watchdog") {
		t.Errorf("child did not report the watchdog:\n%s", out)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("watchdog took %v to abort a 50 ms cap", d)
	}
	if left, _ := filepath.Glob(".bench_build/run-*"); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestRepeatTable: two sets of the toy LJ workloads through -repeat
// print the comparison and end with the summary whose claim is null.
func TestRepeatTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the RI-MP2 toy workloads twice more")
	}
	inCheckout(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-repeat", "2", "-seconds", "1"}, &stdout, &stderr, toySize, 10*time.Minute)
	// A FAIL verdict (exit 1) is legitimate at toy size, where one
	// scheduling hiccup is a large share of a run; the table and the
	// summary must be there either way.
	if code != 0 && !strings.Contains(stderr.String(), "differ by more than") {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== repeatability") {
		t.Errorf("no repeatability table in the output")
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if claim, ok := summary["claim"]; !ok || claim != nil {
		t.Errorf(`summary must end with "claim": null, got %v`, summary["claim"])
	}
}
