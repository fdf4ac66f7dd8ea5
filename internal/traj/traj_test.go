package traj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
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

// tasksPerStep is the number of polymers the engine evaluates per step
// of cfg: its task graph holds the polymers whose MBE coefficient is
// non-zero.
func tasksPerStep(t *testing.T, cfg Config) int {
	t.Helper()
	eng, err := sched.New(cfg.Frag, cfg.Eval, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Graph().NPoly()
}

// countingEval counts the evaluations it passes on.
type countingEval struct {
	fragment.Evaluator
	n atomic.Int64
}

func (c *countingEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	c.n.Add(1)
	return c.Evaluator.Evaluate(g)
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
// in order, with the uninterrupted run's energies and E0 bit for bit,
// every step is evaluated once (a chunk boundary costs no evaluation),
// and the after-chunk hook always runs before the checkpoint file
// changes.
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
				ev := &countingEval{Evaluator: &potential.LennardJones{}}
				done, calls, npoly := 0, 0, 0
				for ; done < steps; calls++ {
					if calls > steps {
						t.Fatalf("no progress: %d Run calls, %d steps done", calls, done)
					}
					cfg := ljConfig(t, steps)
					cfg.CkPath, cfg.CkEvery, cfg.Resume = ckPath, ckEvery, calls > 0
					cfg.Eval, npoly = ev, tasksPerStep(t, cfg)
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
				if got, want := ev.n.Load(), int64(steps*npoly); got != want {
					t.Errorf("%d polymer evaluations, want %d (%d steps × %d polymers)", got, want, steps, npoly)
				}
				if len(got) != len(ref) {
					t.Fatalf("observed %d steps, want %d", len(got), len(ref))
				}
				for i, r := range ref {
					g := got[i]
					if g.step != i || math.Float64bits(g.etot) != math.Float64bits(r.etot) ||
						math.Float64bits(g.e0) != math.Float64bits(r.e0) {
						t.Errorf("row %d: step %d Etot %.12f E0 %.12f, want step %d Etot %.12f E0 %.12f",
							i, g.step, g.etot, g.e0, i, r.etot, r.e0)
					}
				}
			})
		}
	}
}

// A schema-2 checkpoint (testdata/v2_step3of7.ckpt: ljConfig at step 3
// of 7, written before checkpoints carried forces) still resumes: one
// unreported round at its geometry supplies the forces, and the rest
// reproduces the uninterrupted trajectory.
func TestRunResumesSchema2Checkpoint(t *testing.T) {
	const steps = 7
	var ref []sched.StepStats
	if _, err := Run(context.Background(), ljConfig(t, steps), Hooks{
		Step: func(st sched.StepStats, _ float64) { ref = append(ref, st) },
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "v2_step3of7.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "traj.ck")
	if err := os.WriteFile(ckPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ljConfig(t, steps)
	cfg.CkPath, cfg.Resume = ckPath, true
	ev := &countingEval{Evaluator: &potential.LennardJones{}}
	cfg.Eval = ev
	npoly := tasksPerStep(t, cfg)
	var resumedAt int
	var got []sched.StepStats
	done, err := Run(context.Background(), cfg, Hooks{
		Resumed: func(ck *resilience.Checkpoint) {
			resumedAt = ck.StepsDone
			if ck.Grad != nil {
				t.Error("schema-2 checkpoint decoded with a gradient")
			}
		},
		Step: func(st sched.StepStats, _ float64) { got = append(got, st) },
	})
	if err != nil || done != steps {
		t.Fatalf("resumed run: done=%d err=%v", done, err)
	}
	if resumedAt != 3 {
		t.Fatalf("resumed at step %d, want 3", resumedAt)
	}
	if got, want := ev.n.Load(), int64((steps-resumedAt+1)*npoly); got != want {
		t.Errorf("%d polymer evaluations, want %d (the %d new steps and one boundary round)",
			got, want, steps-resumedAt)
	}
	if len(got) != steps-resumedAt {
		t.Fatalf("resumed run reported %d steps, want %d", len(got), steps-resumedAt)
	}
	for i, st := range got {
		want := ref[resumedAt+i]
		if st.Step != want.Step || math.Abs(st.Etot-want.Etot) > 1e-10 || math.Abs(st.Drift-want.Drift) > 1e-10 {
			t.Errorf("step %d: Etot %.12f drift %.3e, want step %d Etot %.12f drift %.3e",
				st.Step, st.Etot, st.Drift, want.Step, want.Etot, want.Drift)
		}
	}
	ck, err := resilience.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.StepsDone != steps || len(ck.Grad) != 3*cfg.Frag.Geom.N() {
		t.Errorf("final checkpoint at step %d with %d gradient components, want %d with %d",
			ck.StepsDone, len(ck.Grad), steps, 3*cfg.Frag.Geom.N())
	}
}
