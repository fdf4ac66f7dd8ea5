// Package traj is the chunked-trajectory driver (DESIGN.md §7, "The
// chunk loop"): the asynchronous engine can only be checkpointed where a
// run has quiesced, so a restartable trajectory is a sequence of engine
// runs. fragmd, fragmd coordinate and serve are adapters over Run.
package traj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Config describes one trajectory.
type Config struct {
	Frag *fragment.Fragmentation // Frag.Geom is the initial geometry
	Eval fragment.Evaluator      // nil when Opts.Exec evaluates remotely
	// Opts configures every chunk's engine. Opts.Cache — or one made here
	// when WarmStart asks for it — is shared across chunks and
	// saved in every checkpoint.
	Opts  sched.Options
	Steps int     // trajectory length
	TempK float64 // TempK and Seed fix a fresh start's velocity draw
	Seed  int64
	// CkPath names the checkpoint file ("" = none), written every CkEvery
	// completed steps (0 = only at the end) — the chunk length. Resume
	// continues from it instead of starting fresh.
	CkPath  string
	CkEvery int
	Resume  bool
}

// Hooks are the driver's callbacks, all called on Run's goroutine; nil
// hooks are skipped.
type Hooks struct {
	// Resumed fires once after the checkpoint was loaded and validated.
	Resumed func(ck *resilience.Checkpoint)
	// BeforeChunk runs before each chunk's engine is made and may
	// rewrite that chunk's copy of the options (the fleet lease); a
	// non-nil release is called when the chunk's engine run ends, however
	// it ends. Returning ErrStop is the drain poll.
	BeforeChunk func(o *sched.Options) (release func(), err error)
	// Step observes every new step: st.Step is the global index and
	// st.Drift the drift against e0, the trajectory's step-0 total energy
	// (it rides in the checkpoint, so a resumed run continues it).
	Step func(st sched.StepStats, e0 float64)
	// AfterChunk runs with the new completed-step count before the
	// chunk's checkpoint is written: a record persisted here is never
	// behind the checkpoint, whatever a crash interrupts.
	AfterChunk func(done int) error
	// Checkpointed fires after the checkpoint is durably on disk.
	Checkpointed func(done int)
}

// ErrStop, returned by Hooks.BeforeChunk, ends the run cleanly at that
// chunk boundary.
var ErrStop = errors.New("traj: stop at chunk boundary")

// Run integrates the trajectory in checkpointed chunks and returns the
// number of completed steps: cfg.Steps on success, fewer (with a nil
// error) when BeforeChunk stopped the run. Chunks share one engine
// topology and continue from the forces left in the state, so each
// evaluates only its new steps.
func Run(ctx context.Context, cfg Config, h Hooks) (int, error) {
	if cfg.Opts.Cache == nil && cfg.Opts.WarmStart {
		cfg.Opts.Cache = warmstart.NewCache()
	}
	cache := cfg.Opts.Cache

	var state *md.State
	done := 0 // completed global steps
	var e0 float64
	haveE0 := false
	if cfg.Resume {
		ck, err := resilience.Load(cfg.CkPath)
		if err != nil {
			return 0, err
		}
		if !ck.Matches(cfg.Frag.Geom) {
			return 0, fmt.Errorf("fragmd: checkpoint %s was taken from a different system", cfg.CkPath)
		}
		if ck.Dt != cfg.Opts.Dt {
			// A different time step would silently break reproducing the
			// uninterrupted run; make the mismatch loud and actionable.
			return 0, fmt.Errorf("fragmd: checkpoint %s was integrated at dt=%g fs; rerun with -dt %g",
				cfg.CkPath, ck.Dt/chem.AtomicTimePerFs, ck.Dt/chem.AtomicTimePerFs)
		}
		if state, err = ck.State(); err != nil {
			return 0, err
		}
		if cache != nil && cache.Len() == 0 {
			// Re-seed only a cold cache: a shared cache's live entries are
			// at least as fresh as the checkpointed ones.
			if err := ck.RestoreCache(cache); err != nil {
				return 0, err
			}
		}
		done = ck.StepsDone
		e0, haveE0 = ck.E0, ck.HasE0
		if h.Resumed != nil {
			h.Resumed(ck)
		}
	} else {
		state = md.NewState(cfg.Frag.Geom)
		state.SampleVelocities(cfg.TempK, rand.New(rand.NewSource(cfg.Seed)))
	}

	var eng *sched.Engine // the first chunk's; later chunks share its topology
	for done < cfg.Steps {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		opts := cfg.Opts
		var release func()
		var err error
		if h.BeforeChunk != nil {
			if release, err = h.BeforeChunk(&opts); errors.Is(err, ErrStop) {
				return done, nil
			} else if err != nil {
				return done, err
			}
		}
		chunk := cfg.Steps - done
		if cfg.CkEvery > 0 && chunk > cfg.CkEvery {
			chunk = cfg.CkEvery
		}
		if eng == nil {
			eng, err = sched.New(cfg.Frag, cfg.Eval, opts)
		} else {
			eng, err = eng.With(opts)
		}
		if err == nil && done > 0 && state.Forces == nil {
			// A schema-1 or -2 checkpoint has no forces: one unreported round supplies them.
			_, err = eng.RunContext(ctx, state, 1, nil)
		}
		if err == nil {
			_, err = eng.RunContext(ctx, state, chunk, func(st sched.StepStats) {
				st.Step += done
				if !haveE0 {
					e0, haveE0 = st.Etot, true
				}
				st.Drift = st.Etot - e0
				if h.Step != nil {
					h.Step(st, e0)
				}
			})
		}
		if release != nil {
			release()
		}
		if err != nil {
			return done, err
		}
		done += chunk
		if h.AfterChunk != nil {
			if err := h.AfterChunk(done); err != nil {
				return done, err
			}
		}
		if cfg.CkPath != "" {
			ck := resilience.Snapshot(state, done, opts.Dt)
			ck.TotalSteps = cfg.Steps
			ck.Seed = cfg.Seed
			ck.E0, ck.HasE0 = e0, haveE0
			ck.AttachCache(cache)
			if err := resilience.Save(cfg.CkPath, ck); err != nil {
				return done, err
			}
			if h.Checkpointed != nil {
				h.Checkpointed(done)
			}
		}
	}
	return done, nil
}
