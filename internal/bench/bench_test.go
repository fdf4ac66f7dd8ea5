package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/cluster"
)

func capture(fn func(*Config)) string {
	var buf bytes.Buffer
	fn(&Config{Quick: true, Out: &buf})
	return buf.String()
}

// Table1 is a pure, deterministic report: every attribute row must be
// present.
func TestTable1Report(t *testing.T) {
	out := capture(Table1)
	for _, want := range []string{
		"Table I", "MBE3/RI-MP2", "double precision", "Measurement mechanism",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

// Fig1/Table II is a fixed literature table: the two "this work" rows
// and the >1000× claim line must appear.
func TestFig1Table2Report(t *testing.T) {
	out := capture(Fig1Table2)
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasSuffix(strings.TrimSpace(l), "this work") {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("Fig1Table2 has %d 'this work' rows, want 2", rows)
	}
	if !strings.Contains(out, "2043328") {
		t.Error("Fig1Table2 missing the 2,043,328-electron urea entry")
	}
	if !strings.Contains(out, ">1000×") {
		t.Error("Fig1Table2 missing the paper's >1000× shape note")
	}
}

// runScaling's parallel-efficiency math on a tiny simulated workload:
// doubling nodes can never yield >100 % efficiency under the
// simulator's deterministic cost model, and the base row is exactly
// 100 % by construction.
func TestRunScalingEfficiencyMath(t *testing.T) {
	w := cluster.UreaWorkload(64, 4, 15.3, 15.3)
	var buf bytes.Buffer
	c := &Config{Quick: true, Out: &buf}
	runScaling(c, w, cluster.Frontier(), []int{2, 4}, "test")
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + two node rows + note line.
	if len(lines) != 4 {
		t.Fatalf("runScaling printed %d lines, want 4:\n%s", len(lines), out)
	}
	var nodes int
	var sPerStep, pflops, peak, eff float64
	if _, err := fmtSscan(lines[1], &nodes, &sPerStep, &pflops, &peak, &eff); err != nil {
		t.Fatalf("cannot parse base row %q: %v", lines[1], err)
	}
	if nodes != 2 || eff != 100 {
		t.Errorf("base row nodes=%d eff=%.0f%%, want 2 and 100%%", nodes, eff)
	}
	if _, err := fmtSscan(lines[2], &nodes, &sPerStep, &pflops, &peak, &eff); err != nil {
		t.Fatalf("cannot parse second row %q: %v", lines[2], err)
	}
	if nodes != 4 || eff <= 0 || eff > 100.5 {
		t.Errorf("second row nodes=%d eff=%.1f%%, want 4 and 0 < eff ≤ 100", nodes, eff)
	}
	if sPerStep <= 0 || pflops <= 0 || peak <= 0 {
		t.Errorf("implausible scaling row: %q", lines[2])
	}
}

// glycineWorkload's fragment bookkeeping: n monomers in a chain, each
// interior residue bonded to both neighbours.
func TestGlycineWorkloadTopology(t *testing.T) {
	w := glycineWorkload(5)
	if len(w.Monomers) != 5 {
		t.Fatalf("got %d monomers, want 5", len(w.Monomers))
	}
	for i, m := range w.Monomers {
		wantBonds := 2
		if i == 0 || i == 4 {
			wantBonds = 1
		}
		if len(m.Bonded) != wantBonds {
			t.Errorf("residue %d has %d bonds, want %d", i, len(m.Bonded), wantBonds)
		}
		if m.NBf <= 0 || m.NAux <= m.NBf {
			t.Errorf("residue %d basis metadata implausible: nbf=%d naux=%d", i, m.NBf, m.NAux)
		}
	}
}

// An experiment error is a recorded failure, which mbebench turns into
// exit 1: the cluster simulator refuses jitter outside [0, 1).
func TestFig8JitterOutOfRangeFails(t *testing.T) {
	var buf bytes.Buffer
	c := &Config{Quick: true, Out: &buf, Jitter: 2}
	Fig8(c)
	if len(c.Failures) != 1 || !strings.HasPrefix(c.Failures[0], "fig8: ") || !strings.Contains(c.Failures[0], "jitter") {
		t.Fatalf("failures %q, want one fig8 jitter error:\n%s", c.Failures, buf.String())
	}
}

// fmtSscan parses "nodes s/step PFLOP/s peak% eff%" rows.
func fmtSscan(line string, nodes *int, sPerStep, pflops, peak, eff *float64) (int, error) {
	fields := strings.Fields(strings.ReplaceAll(line, "%", ""))
	if len(fields) < 5 {
		return 0, fmt.Errorf("bench test: %d fields in %q, want 5", len(fields), line)
	}
	var err error
	parse := func(f string, dst *float64) {
		if err != nil {
			return
		}
		v, e := strconv.ParseFloat(f, 64)
		if e != nil {
			err = e
			return
		}
		*dst = v
	}
	var nf float64
	parse(fields[0], &nf)
	*nodes = int(nf)
	parse(fields[1], sPerStep)
	parse(fields[2], pflops)
	parse(fields[3], peak)
	parse(fields[4], eff)
	return 5, err
}

// The EE-MBE experiment must report an accuracy win (it fails itself
// via Config.Failures when embedding never beats vacuum) and both
// scheduling modes.
func TestEmbedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("embedded supersystem references are slow; run without -short")
	}
	var buf bytes.Buffer
	c := &Config{Quick: true, Out: &buf}
	Embed(c)
	if len(c.Failures) > 0 {
		t.Fatalf("embed experiment failed: %v", c.Failures)
	}
	out := buf.String()
	for _, want := range []string{"EE-MBE accuracy", "embedding shrank the MBE2 error", "embedded+scc"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// The resilience sweep is pure simulation and fast at Quick scale: the
// report must show recoveries at nonzero failure rates, evictions in
// the permanent-failure row, and no recorded failures.
func TestResilienceReport(t *testing.T) {
	var buf bytes.Buffer
	c := &Config{Quick: true, Out: &buf}
	Resilience(c)
	out := buf.String()
	if len(c.Failures) > 0 {
		t.Fatalf("resilience sweep recorded failures %v:\n%s", c.Failures, out)
	}
	for _, want := range []string{"no failures", "mtbf span/8", "perm", "recovered", "Shape to verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("resilience output missing %q:\n%s", want, out)
		}
	}
	// The no-failure baseline row reports zero recoveries; at least one
	// failing row reports a positive count (asserted by the experiment
	// itself via c.Failures, re-checked here on the rendered table).
	var sawRecovery bool
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 8 && strings.HasPrefix(l, "   mtbf") {
			if n, err := strconv.Atoi(f[4]); err == nil && n > 0 {
				sawRecovery = true
			}
		}
	}
	if !sawRecovery {
		t.Errorf("no recovery counts visible in the table:\n%s", out)
	}
}
