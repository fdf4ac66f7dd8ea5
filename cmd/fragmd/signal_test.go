package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/traj"
)

// A nil drainer must never drain: runMD is also called by code paths
// that do not arm signal handling (bench mode, library use).
func TestNilDrainerNeverDrains(t *testing.T) {
	var d *drainer
	if d.drained() {
		t.Fatal("nil drainer reports drained")
	}
}

// ljSystem builds a small LJ-evaluated water cluster for fast MD runs.
func ljSystem(t *testing.T) (*fragment.Fragmentation, fragment.Evaluator) {
	t.Helper()
	f, err := fragment.ByMolecule(molecule.WaterCluster(3), 3, 1, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := potential.Spec{Potential: "lj"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f, eval
}

// A drain requested mid-run must stop runMD at the next checkpoint
// boundary with a nil error (exit 0), and the checkpoint it leaves
// behind must resume to a trajectory identical to an uninterrupted
// one — the whole point of draining over dying.
func TestRunMDDrainStopsAtCheckpointAndResumes(t *testing.T) {
	const steps, ckEvery = 6, 2
	cfgFor := func(ckPath string, resume bool) traj.Config {
		f, eval := ljSystem(t)
		return traj.Config{Frag: f, Eval: eval, Steps: steps, TempK: 150, Seed: 1,
			Opts:   sched.Options{Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs},
			CkPath: ckPath, CkEvery: ckEvery, Resume: resume}
	}

	// Uninterrupted reference. MD evolves the geometry in place, so
	// every run gets its own freshly built system.
	var ref bytes.Buffer
	if err := runMD(&ref, cfgFor("", false), nil, nil); err != nil {
		t.Fatal(err)
	}

	// Drained run: prep runs before each chunk, so a flag set on the
	// first call is seen at the top of the loop after chunk one —
	// exactly the window a real SIGTERM lands in.
	ckPath := filepath.Join(t.TempDir(), "traj.ck")
	d := &drainer{}
	prep := func(*sched.Options) (func(), error) {
		d.flag.Store(true)
		return nil, nil
	}
	var out bytes.Buffer
	if err := runMD(&out, cfgFor(ckPath, false), prep, d); err != nil {
		t.Fatalf("drained run failed: %v", err)
	}
	if want := "drained at step 2/6; resume with -resume -checkpoint " + ckPath; !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}

	var resumed bytes.Buffer
	if err := runMD(&resumed, cfgFor(ckPath, true), nil, nil); err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	// Stitch step lines from both runs and compare Etot per step against
	// the reference trajectory.
	refE := parseStepEnergies(t, ref.String())
	got := parseStepEnergies(t, out.String()+resumed.String())
	if len(got) != len(refE) {
		t.Fatalf("drain+resume reported %d steps, reference %d", len(got), len(refE))
	}
	for step, e := range refE {
		if r, ok := got[step]; !ok || math.Abs(r-e) > 1e-10 {
			t.Fatalf("step %d: drain+resume Etot %.12f, reference %.12f", step, got[step], e)
		}
	}
}

// Draining without -checkpoint still stops promptly but must warn that
// the remaining steps are gone.
func TestRunMDDrainWithoutCheckpointWarns(t *testing.T) {
	f, eval := ljSystem(t)
	opts := sched.Options{Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs}
	d := &drainer{}
	d.flag.Store(true)
	var out bytes.Buffer
	if err := runMD(&out, traj.Config{Frag: f, Eval: eval, Opts: opts, Steps: 4, TempK: 150, Seed: 1}, nil, d); err != nil {
		t.Fatal(err)
	}
	if want := "no -checkpoint: remaining steps are not resumable"; !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}
}

// A drain requested while coordinate waits for its fleet must end the
// wait: the run stops at step 0 and exits 0 instead of blocking until a
// second signal. The coordinator runs as a real process so the signal
// takes the production path.
func TestRunMDDrainWhileWaitingForFleet(t *testing.T) {
	xyz := filepath.Join(t.TempDir(), "dimer.xyz")
	var b bytes.Buffer
	if err := molecule.WaterCluster(2).WriteXYZ(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(xyz, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FRAGMD_TEST_ARGV="+strings.Join(
		[]string{"coordinate", "-listen", "127.0.0.1:0", "-potential", "lj", "-in", xyz, "-steps", "3"}, argvSep))
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() })

	// Signals are armed before the listener, so once it is up an
	// interrupt is a drain request, not a kill.
	waitOutput(t, &out, `coordinator listening on`, 30*time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("drained coordinator exited with %v, want status 0:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("drain did not end the wait for the fleet:\n%s", out.String())
	}
	if want := "drained at step 0/3"; !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}

// parseStepEnergies maps step number → Etot from runMD's table output.
func parseStepEnergies(t *testing.T, out string) map[int]float64 {
	t.Helper()
	got := map[int]float64{}
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) != 6 {
			continue
		}
		step, err := strconv.Atoi(f[0])
		if err != nil {
			continue
		}
		etot, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		got[step] = etot
	}
	return got
}

// The two-stage handler itself: the first real signal flips the drain
// flag, the second routes to the exit seam with the conventional
// 128+SIGTERM status.
func TestArmSignalsTwoStage(t *testing.T) {
	var errOut syncBuffer
	var code atomic.Int64
	code.Store(-1)
	exited := make(chan struct{})
	d, stop := armSignalsExit(&errOut, func(c int) {
		code.Store(int64(c))
		close(exited)
	})
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain flag", func() bool { return d.drained() })

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not reach the exit seam")
	}
	if got := code.Load(); got != 128+int64(syscall.SIGTERM) {
		t.Fatalf("exit code %d, want %d", got, 128+int(syscall.SIGTERM))
	}
	if !strings.Contains(errOut.String(), "draining") || !strings.Contains(errOut.String(), "exiting immediately") {
		t.Fatalf("unexpected diagnostics:\n%s", errOut.String())
	}
	stop()
	stop() // stop is idempotent
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
