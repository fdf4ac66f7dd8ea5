package traj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
)

// ljConfig is a short Lennard-Jones water-trimer trajectory. MD evolves
// the geometry in place, so every Run gets a freshly built system.
func ljConfig(t *testing.T, steps int) Config {
	t.Helper()
	f, err := fragment.ByMolecule(molecule.WaterCluster(3), 3, 1, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Frag: f, Eval: &potential.LennardJones{}, Steps: steps, TempK: 150, Seed: 3,
		Opts: sched.Options{Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, WarmStart: true},
	}
}

// savedSteps reads StepsDone from the checkpoint file (0 = no file yet).
func savedSteps(t *testing.T, path string) int {
	t.Helper()
	ck, err := resilience.Load(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return ck.StepsDone
}

// The chunk loop's contract: however the trajectory is cut — checkpoint
// cadence 0, 1 or 3, run in one call or stopped at every chunk boundary
// and resumed from disk — observers see each global step exactly once,
// in order, with the uninterrupted run's energies and E0, and the
// after-chunk hook always runs before the checkpoint file changes.
func TestRunChunkingIsInvisible(t *testing.T) {
	const steps = 7
	type row struct {
		step     int
		etot, e0 float64
	}
	var ref []row
	if done, err := Run(context.Background(), ljConfig(t, steps), Hooks{
		Step: func(st sched.StepStats, e0 float64) { ref = append(ref, row{st.Step, st.Etot, e0}) },
	}); err != nil || done != steps {
		t.Fatalf("reference run: done=%d err=%v", done, err)
	}

	for _, ckEvery := range []int{0, 1, 3} {
		for _, interrupt := range []bool{false, true} {
			t.Run(fmt.Sprintf("ckEvery=%d/interrupt=%t", ckEvery, interrupt), func(t *testing.T) {
				ckPath := filepath.Join(t.TempDir(), "traj.ck")
				var got []row
				done, calls := 0, 0
				for ; done < steps; calls++ {
					if calls > steps {
						t.Fatalf("no progress: %d Run calls, %d steps done", calls, done)
					}
					cfg := ljConfig(t, steps)
					cfg.CkPath, cfg.CkEvery, cfg.Resume = ckPath, ckEvery, calls > 0
					chunks := 0
					var err error
					done, err = Run(context.Background(), cfg, Hooks{
						BeforeChunk: func(*sched.Options) (func(), error) {
							if chunks++; interrupt && chunks > 1 {
								return nil, ErrStop
							}
							return nil, nil
						},
						Step: func(st sched.StepStats, e0 float64) { got = append(got, row{st.Step, st.Etot, e0}) },
						AfterChunk: func(d int) error {
							if on := savedSteps(t, ckPath); on >= d {
								t.Errorf("after-chunk hook for step %d ran with the checkpoint already at %d", d, on)
							}
							return nil
						},
						Checkpointed: func(d int) {
							if on := savedSteps(t, ckPath); on != d {
								t.Errorf("checkpoint on disk at step %d after the step-%d save", on, d)
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				wantCalls := 1
				if interrupt && ckEvery > 0 {
					wantCalls = (steps + ckEvery - 1) / ckEvery
				}
				if calls != wantCalls {
					t.Errorf("%d Run calls, want %d (one per chunk when interrupted)", calls, wantCalls)
				}
				if len(got) != len(ref) {
					t.Fatalf("observed %d steps, want %d", len(got), len(ref))
				}
				for i, r := range ref {
					g := got[i]
					if g.step != i || math.Abs(g.etot-r.etot) > 1e-10 || math.Abs(g.e0-r.e0) > 1e-10 {
						t.Errorf("row %d: step %d Etot %.12f E0 %.12f, want step %d Etot %.12f E0 %.12f",
							i, g.step, g.etot, g.e0, i, r.etot, r.e0)
					}
				}
			})
		}
	}
}
