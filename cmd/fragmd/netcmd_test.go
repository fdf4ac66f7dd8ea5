package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/resilience"
)

// argvSep joins/splits the re-exec argv in the environment (flags may
// contain spaces, never this byte).
const argvSep = "\x1f"

// TestMain re-execs the test binary as a real fragmd process when
// FRAGMD_TEST_ARGV is set — the multi-process harness the distributed
// smoke test uses, so a worker can be kill -9'd like a production
// crash.
func TestMain(m *testing.M) {
	if argv := os.Getenv("FRAGMD_TEST_ARGV"); argv != "" {
		if err := run(strings.Split(argv, argvSep), os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer safe for the coordinator goroutine to
// write while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeWaterXYZ writes an n-molecule water cluster in XYZ (Å).
func writeWaterXYZ(t *testing.T, n int) string {
	t.Helper()
	g := molecule.WaterCluster(n)
	var b strings.Builder
	fmt.Fprintf(&b, "%d\nwater cluster (test)\n", g.N())
	for _, a := range g.Atoms {
		fmt.Fprintf(&b, "%s %.8f %.8f %.8f\n", chem.Symbol(a.Z),
			a.Pos[0]*chem.AngstromPerBohr, a.Pos[1]*chem.AngstromPerBohr, a.Pos[2]*chem.AngstromPerBohr)
	}
	path := filepath.Join(t.TempDir(), "waters.xyz")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// spawnWorker starts a worker subprocess against addr and returns it;
// cleanup kills any survivor.
func spawnWorker(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"FRAGMD_TEST_ARGV=worker"+argvSep+"-connect"+argvSep+addr)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// waitOutput polls the buffer until the pattern appears.
func waitOutput(t *testing.T, buf *syncBuffer, pattern string, timeout time.Duration) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("output never matched %q within %s:\n%s", pattern, timeout, buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The distributed acceptance test: an MD trajectory run by a
// coordinator over three worker *processes* — one of which is
// kill -9'd mid-run — must reproduce the single-process trajectory's
// energies to 1e-10 Ha.
func TestCoordinateSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process RI-MP2 dynamics is slow; run without -short")
	}
	xyz := writeWaterXYZ(t, 3)
	const steps = "3"

	var local bytes.Buffer
	if err := run([]string{"-in", xyz, "-mode", "md", "-steps", steps}, &local, io.Discard); err != nil {
		t.Fatal(err)
	}
	localRows := parseStepRows(t, local.String())
	if len(localRows) != 3 {
		t.Fatalf("local run reported %d steps, want 3:\n%s", len(localRows), local.String())
	}

	var netOut, netLog syncBuffer
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run([]string{"coordinate", "-listen", "127.0.0.1:0",
			"-min-workers", "2", "-retries", "2", "-in", xyz, "-steps", steps}, &netOut, &netLog)
	}()
	addr := waitOutput(t, &netOut, `coordinator listening on (\S+)`, 30*time.Second)[1]

	victim := spawnWorker(t, addr)
	spawnWorker(t, addr)
	spawnWorker(t, addr)

	// Kill the victim the moment the first step completes: steps 1–2
	// are still outstanding, so the fleet loses a member mid-run.
	waitOutput(t, &netOut, `(?m)^\s+0\s`, 120*time.Second)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator failed: %v\nlog:\n%s", err, netLog.String())
		}
	case <-time.After(180 * time.Second):
		t.Fatalf("coordinator never finished\nout:\n%s\nlog:\n%s", netOut.String(), netLog.String())
	}
	// The kill must have been detected as a dead connection (the
	// shutdown path logs "coordinator shut down" instead).
	if !strings.Contains(netLog.String(), "declared dead") ||
		!strings.Contains(netLog.String(), "connection lost") {
		t.Errorf("killed worker's death never detected:\n%s", netLog.String())
	}

	netRows := parseStepRows(t, netOut.String())
	if len(netRows) != 3 {
		t.Fatalf("network run reported %d steps, want 3:\n%s", len(netRows), netOut.String())
	}
	for step, want := range localRows {
		got, ok := netRows[step]
		if !ok {
			t.Fatalf("network run missing step %d", step)
		}
		if d := math.Abs(got[0] - want[0]); d > 1e-10 {
			t.Errorf("step %d: |ΔEtot| = %.3e Ha between network and single-process runs", step, d)
		}
		if d := math.Abs(got[1] - want[1]); d > 1e-10 {
			t.Errorf("step %d: |ΔEpot| = %.3e Ha between network and single-process runs", step, d)
		}
	}
}

// coordinate shares fragmd's system loader and trajectory driver, so it
// prints the same system line for a periodic XYZ and refuses a resume
// at a different time step with the same message. Resume validation
// precedes the first chunk, so no worker is needed.
func TestCoordinateMatchesSingleProcessFrontEnd(t *testing.T) {
	both := func(args ...string) (single, coord string, errSingle, errCoord error) {
		var s, c bytes.Buffer
		errSingle = run(append([]string{"-mode", "md"}, args...), &s, io.Discard)
		errCoord = run(append([]string{"coordinate", "-listen", "127.0.0.1:0"}, args...), &c, io.Discard)
		return s.String(), c.String(), errSingle, errCoord
	}

	boxPath := filepath.Join(t.TempDir(), "box.xyz")
	var b bytes.Buffer
	if err := molecule.WaterBox(2, 1, 1, 1).WriteXYZ(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(boxPath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "none.ckpt")
	single, coord, _, _ := both("-in", boxPath, "-checkpoint", missing, "-resume")
	line := strings.SplitN(single, "\n", 2)[0]
	if !strings.Contains(line, "periodic cell") || !strings.HasPrefix(coord, line+"\n") {
		t.Errorf("system lines differ:\nfragmd:     %q\ncoordinate: %q", single, coord)
	}

	ck := filepath.Join(t.TempDir(), "traj.ckpt")
	snap := resilience.Snapshot(md.NewState(molecule.WaterCluster(2)), 1, 0.25*chem.AtomicTimePerFs)
	if err := resilience.Save(ck, snap); err != nil {
		t.Fatal(err)
	}
	_, _, errSingle, errCoord := both("-in", writeWaterXYZ(t, 2), "-dt", "0.5", "-checkpoint", ck, "-resume")
	if errCoord == nil || !strings.Contains(errCoord.Error(), "rerun with -dt 0.25") {
		t.Errorf("coordinate dt mismatch: got %v, want the CLI's -dt message", errCoord)
	}
	if errSingle == nil || errCoord == nil || errSingle.Error() != errCoord.Error() {
		t.Errorf("dt refusals differ: fragmd %v, coordinate %v", errSingle, errCoord)
	}
}

// Flag validation of the distributed subcommands.
func TestNetSubcommandValidation(t *testing.T) {
	cases := [][]string{
		{"worker"}, // -connect missing
		{"worker", "-connect", "x", "-slots", "0"}, // bad slot count
		{"coordinate"}, // -in missing
		{"coordinate", "-in", "x.xyz", "-min-workers", "0"},
		{"coordinate", "-in", "x.xyz", "-potential", "dft"},
		{"coordinate", "-in", "x.xyz", "-resume"}, // -resume needs -checkpoint
	}
	for _, argv := range cases {
		if err := run(argv, io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want usage error", argv, err)
		}
	}
}
