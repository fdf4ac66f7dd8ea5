package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/resilience"
)

// writeWaterDimerXYZ writes a 2-monomer water dimer in XYZ (Å) and
// returns its path.
func writeWaterDimerXYZ(t *testing.T) string {
	t.Helper()
	g := molecule.WaterCluster(2)
	var b strings.Builder
	fmt.Fprintf(&b, "%d\nwater dimer (test)\n", g.N())
	for _, a := range g.Atoms {
		fmt.Fprintf(&b, "%s %.8f %.8f %.8f\n", chem.Symbol(a.Z),
			a.Pos[0]*chem.AngstromPerBohr, a.Pos[1]*chem.AngstromPerBohr, a.Pos[2]*chem.AngstromPerBohr)
	}
	path := filepath.Join(t.TempDir(), "dimer.xyz")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// parseEnergy extracts the reported MBE energy from the output.
func parseEnergy(t *testing.T, out string) float64 {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "MBE3/RI-MP2 energy:") {
			f := strings.Fields(l)
			v, err := strconv.ParseFloat(f[len(f)-2], 64)
			if err != nil {
				t.Fatalf("cannot parse energy from %q: %v", l, err)
			}
			return v
		}
	}
	t.Fatalf("no energy line in output:\n%s", out)
	return 0
}

// Smoke: the energy mode on a 2-monomer water dimer must report a
// finite, chemically sensible energy and a non-empty report.
func TestRunEnergyMode(t *testing.T) {
	xyz := writeWaterDimerXYZ(t)
	var out bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "energy"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"system: 6 atoms", "fragmentation: 2 monomers, 1 dimers", "GEMM FLOPs"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	e := parseEnergy(t, s)
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("non-finite energy %v", e)
	}
	// Two waters at MP2/STO-3G ≈ −150 Ha; anything near that is sane.
	if e > -140 || e < -160 {
		t.Errorf("implausible water-dimer energy %.6f Ha", e)
	}
}

// -embed switches energy mode to the two-phase EE-MBE driver; the
// embedded energy must differ from vacuum, and malformed embedding
// knobs are usage errors. Three monomers are the smallest case where
// they can differ: on two, MBE2 telescopes to the supersystem and the
// embedded monomer terms cancel identically.
func TestRunEmbedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("embedded RI-MP2 energies are slow; run without -short")
	}
	g := molecule.WaterCluster(3)
	var b strings.Builder
	fmt.Fprintf(&b, "%d\nwater trimer (test)\n", g.N())
	for _, a := range g.Atoms {
		fmt.Fprintf(&b, "%s %.8f %.8f %.8f\n", chem.Symbol(a.Z),
			a.Pos[0]*chem.AngstromPerBohr, a.Pos[1]*chem.AngstromPerBohr, a.Pos[2]*chem.AngstromPerBohr)
	}
	xyz := filepath.Join(t.TempDir(), "trimer.xyz")
	if err := os.WriteFile(xyz, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// A tiny trimer cutoff keeps the expansion at MBE2: full MBE3 on
	// three monomers would telescope to the supersystem on both paths.
	base := []string{"-in", xyz, "-mode", "energy", "-trimer-cut", "0.1"}
	var vacOut bytes.Buffer
	if err := run(base, &vacOut, io.Discard); err != nil {
		t.Fatal(err)
	}
	var embOut bytes.Buffer
	if err := run(append(base, "-embed", "-embed-scc", "1"), &embOut, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(embOut.String(), "EE-MBE3/RI-MP2 energy:") {
		t.Fatalf("embedded output missing EE-MBE report:\n%s", embOut.String())
	}
	if !strings.Contains(embOut.String(), "SCC rounds 2") {
		t.Fatalf("embedded output missing SCC round count:\n%s", embOut.String())
	}
	vac := parseEnergy(t, vacOut.String())
	var emb float64
	for _, l := range strings.Split(embOut.String(), "\n") {
		if strings.HasPrefix(l, "EE-MBE3/RI-MP2 energy:") {
			fmt.Sscanf(strings.Fields(l)[2], "%g", &emb)
		}
	}
	if emb == 0 || math.Abs(emb-vac) < 1e-9 {
		t.Fatalf("embedding left the energy unchanged: vac %.10f emb %.10f", vac, emb)
	}
}

func TestRunEmbedFlagValidation(t *testing.T) {
	xyz := writeWaterDimerXYZ(t)
	for _, args := range [][]string{
		{"-in", xyz, "-embed", "-embed-damp", "1.5"},
		{"-in", xyz, "-embed", "-embed-scc", "-2"},
		{"-in", xyz, "-embed", "-embed-tol", "-1"},
	} {
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("args %v: got %v, want usage error", args, err)
		}
	}
}

// Smoke: the cold-vs-warm bench mode must run a short trajectory and
// print the comparison table with totals.
func TestRunBenchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 dynamics bench is slow; run without -short")
	}
	xyz := writeWaterDimerXYZ(t)
	var out bytes.Buffer
	err := run([]string{"-in", xyz, "-mode", "bench", "-steps", "3", "-dimer-cut", "0.1"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"cold SCF-iter", "warm SCF-iter", "totals", "SCF iterations saved"} {
		if !strings.Contains(s, want) {
			t.Errorf("bench output missing %q:\n%s", want, s)
		}
	}
}

// Flag validation: a missing -in must error out as a usage error,
// unknown modes as ordinary errors, and -h as flag.ErrHelp (mapped to
// exit 0 by main).
func TestRunValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-mode", "energy"}, &out, &errOut); !errors.Is(err, errUsage) {
		t.Errorf("missing -in: got %v, want errUsage", err)
	}
	if !strings.Contains(errOut.String(), "-in is required") {
		t.Errorf("missing -in diagnostic not on stderr writer:\n%s", errOut.String())
	}
	if err := run([]string{"-h"}, &out, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	errOut.Reset()
	if err := run([]string{"-no-such-flag"}, &out, &errOut); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: got %v, want errUsage", err)
	}
	if !strings.Contains(errOut.String(), "-no-such-flag") {
		t.Errorf("unknown-flag diagnostic not on stderr writer:\n%s", errOut.String())
	}
	xyz := writeWaterDimerXYZ(t)
	err := run([]string{"-in", xyz, "-mode", "nope"}, &out, io.Discard)
	if err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown mode: got %v, want a plain error", err)
	}
}

// parseStepRows extracts "step → (Etot, Epot, drift)" from md-mode
// output (step, Etot, Epot, T, drift, SCF-iter).
func parseStepRows(t *testing.T, out string) map[int][3]float64 {
	t.Helper()
	rows := map[int][3]float64{}
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) != 6 {
			continue
		}
		step, err := strconv.Atoi(f[0])
		if err != nil {
			continue
		}
		etot, err1 := strconv.ParseFloat(f[1], 64)
		epot, err2 := strconv.ParseFloat(f[2], 64)
		drift, err3 := strconv.ParseFloat(f[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		rows[step] = [3]float64{etot, epot, drift}
	}
	return rows
}

// The restart acceptance test at the CLI level: an md run killed after
// 2 of 4 steps and resumed from its checkpoint reproduces the
// uninterrupted run's energies.
func TestRunMDCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 dynamics is slow; run without -short")
	}

	xyz := writeWaterDimerXYZ(t)
	ck := filepath.Join(t.TempDir(), "traj.ckpt")

	var full, killed, resumed bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "md", "-steps", "4"}, &full, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The "killed" run: only 2 steps happen before the lights go out.
	if err := run([]string{"-in", xyz, "-mode", "md", "-steps", "2",
		"-checkpoint", ck, "-checkpoint-every", "1"}, &killed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if err := run([]string{"-in", xyz, "-mode", "md", "-steps", "4",
		"-checkpoint", ck, "-resume"}, &resumed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resumed from") {
		t.Fatalf("resume did not report the restart:\n%s", resumed.String())
	}

	fullRows := parseStepRows(t, full.String())
	killedRows := parseStepRows(t, killed.String())
	resumedRows := parseStepRows(t, resumed.String())
	if len(fullRows) != 4 {
		t.Fatalf("full run reported %d steps, want 4:\n%s", len(fullRows), full.String())
	}
	if len(killedRows) != 2 {
		t.Fatalf("killed run reported %d steps, want 2", len(killedRows))
	}
	// The resumed run reports exactly the missing steps (the duplicated
	// boundary step is not re-reported).
	if _, ok := resumedRows[1]; ok {
		t.Error("resumed run re-reported an already-completed step")
	}
	for step := 2; step < 4; step++ {
		got, ok := resumedRows[step]
		if !ok {
			t.Fatalf("resumed run missing step %d:\n%s", step, resumed.String())
		}
		want := fullRows[step]
		if d := math.Abs(got[0] - want[0]); d > 1e-10 {
			t.Errorf("step %d: |ΔEtot| = %.3e Ha between resumed and uninterrupted runs", step, d)
		}
		if d := math.Abs(got[1] - want[1]); d > 1e-10 {
			t.Errorf("step %d: |ΔEpot| = %.3e Ha between resumed and uninterrupted runs", step, d)
		}
		// The drift column's baseline (step-0 Etot) rides in the
		// checkpoint, so the resumed diagnostic continues the original
		// trajectory's instead of resetting at the restart boundary.
		if d := math.Abs(got[2] - want[2]); d > 1e-10 {
			t.Errorf("step %d: resumed drift %.3e vs uninterrupted %.3e — baseline not restored",
				step, got[2], want[2])
		}
	}
	for step := 0; step < 2; step++ {
		if d := math.Abs(killedRows[step][0] - fullRows[step][0]); d > 1e-10 {
			t.Errorf("step %d: killed run diverged from full run by %.3e before the kill", step, d)
		}
	}

	// A corrupted checkpoint is refused loudly, not resumed wrongly.
	blob, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-in", xyz, "-mode", "md", "-steps", "4", "-checkpoint", ck, "-resume"},
		io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("truncated checkpoint: got %v, want a corruption error", err)
	}
}

// Checkpoint flag validation.
func TestRunCheckpointFlagValidation(t *testing.T) {
	xyz := writeWaterDimerXYZ(t)
	var errOut bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "md", "-resume"}, io.Discard, &errOut); !errors.Is(err, errUsage) {
		t.Errorf("-resume without -checkpoint: got %v, want errUsage", err)
	}
	if !strings.Contains(errOut.String(), "-checkpoint") {
		t.Errorf("diagnostic missing:\n%s", errOut.String())
	}
	if err := run([]string{"-in", xyz, "-mode", "md", "-checkpoint-every", "2"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("-checkpoint-every without -checkpoint: got %v, want errUsage", err)
	}
	if err := run([]string{"-in", xyz, "-mode", "md", "-checkpoint", "x", "-checkpoint-every", "-1"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("negative -checkpoint-every: got %v, want errUsage", err)
	}
}

// Resuming at a different time step than the checkpoint was integrated
// with would silently produce a different trajectory; the CLI must
// refuse the mismatch and name the right -dt.
func TestRunResumeRejectsDtMismatch(t *testing.T) {
	xyz := writeWaterDimerXYZ(t)
	ck := filepath.Join(t.TempDir(), "traj.ckpt")
	g := molecule.WaterCluster(2)
	snap := resilience.Snapshot(md.NewState(g), 1, 0.25*chem.AtomicTimePerFs)
	if err := resilience.Save(ck, snap); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-in", xyz, "-mode", "md", "-steps", "4", "-dt", "0.5",
		"-checkpoint", ck, "-resume"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-dt 0.25") {
		t.Errorf("dt mismatch: got %v, want an error naming -dt 0.25", err)
	}
	// The matching dt is accepted (error-free parse past the check is
	// enough: the state then integrates normally).
	var out bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "md", "-steps", "1", "-dt", "0.25",
		"-checkpoint", ck, "-resume"}, &out, io.Discard); err != nil {
		t.Fatalf("matching dt rejected: %v", err)
	}
	if !strings.Contains(out.String(), "already complete") {
		t.Errorf("steps ≤ StepsDone should report completion:\n%s", out.String())
	}
}

// Periodic flags: -box attaches a cell (reported in the system line),
// an XYZ cell= comment satisfies -pbc on its own, -pbc with no cell at
// all is a usage error, malformed -box values are usage errors, and
// -embed under a cell is refused before any evaluation, in the serial
// energy path and in the MD engine.
func TestRunBoxAndPBCFlags(t *testing.T) {
	xyz := writeWaterDimerXYZ(t)
	var out bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "energy", "-box", "200", "-pbc"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "periodic cell") {
		t.Errorf("system line missing the cell:\n%s", out.String())
	}

	var errOut bytes.Buffer
	if err := run([]string{"-in", xyz, "-pbc"}, io.Discard, &errOut); !errors.Is(err, errUsage) {
		t.Errorf("-pbc without a cell: got %v, want errUsage", err)
	}
	if !strings.Contains(errOut.String(), "-pbc needs a cell") {
		t.Errorf("-pbc diagnostic not on stderr writer:\n%s", errOut.String())
	}
	for _, bad := range []string{"abc", "1,2", "1,2,3,4", "0", "-5,5,5"} {
		if err := run([]string{"-in", xyz, "-box", bad}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("-box %q: got %v, want errUsage", bad, err)
		}
	}
	for _, mode := range []string{"energy", "md"} {
		err := run([]string{"-in", xyz, "-mode", mode, "-steps", "1", "-embed", "-box", "20"}, io.Discard, io.Discard)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "periodic cell 20 x 20 x 20 Å") {
			t.Errorf("-mode %s -embed -box 20: got %v, want the periodic-embedding refusal", mode, err)
		}
	}

	// A geometry written by a periodic builder round-trips its cell
	// through the XYZ comment, so -pbc passes with no -box.
	boxPath := filepath.Join(t.TempDir(), "box.xyz")
	var b bytes.Buffer
	if err := molecule.WaterBox(2, 1, 1, 1).WriteXYZ(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(boxPath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-in", boxPath, "-mode", "energy", "-pbc"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "periodic cell") {
		t.Errorf("cell= comment not honoured:\n%s", out.String())
	}
}
