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
	// when WarmStart/SkipTol ask for it — is shared across chunks and
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
	// BeforeChunk runs before each chunk's engine is built and may
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
// error) when BeforeChunk stopped the run. A continuation chunk
// re-evaluates forces at the checkpointed geometry as its local step 0
// and does not re-report it, so the assembled trajectory reproduces an
// uninterrupted one.
func Run(ctx context.Context, cfg Config, h Hooks) (int, error) {
	if cfg.Opts.Cache == nil && (cfg.Opts.WarmStart || cfg.Opts.SkipTol > 0) {
		cfg.Opts.Cache = warmstart.NewCache(cfg.Opts.SkipTol, cfg.Opts.MaxSkip)
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

	for done < cfg.Steps {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		opts := cfg.Opts
		var release func()
		if h.BeforeChunk != nil {
			var err error
			if release, err = h.BeforeChunk(&opts); errors.Is(err, ErrStop) {
				return done, nil
			} else if err != nil {
				return done, err
			}
		}
		// A continuation chunk re-runs the boundary step as its local
		// step 0 (offset 1); chunk length covers CkEvery new steps.
		offset := 0
		if done > 0 {
			offset = 1
		}
		chunk := cfg.Steps - done + offset
		if cfg.CkEvery > 0 && chunk > cfg.CkEvery+offset {
			chunk = cfg.CkEvery + offset
		}
		eng, err := sched.New(cfg.Frag, cfg.Eval, opts)
		if err == nil {
			_, err = eng.RunContext(ctx, state, chunk, func(st sched.StepStats) {
				if st.Step < offset {
					return // boundary step, already reported by the previous chunk
				}
				st.Step += done - offset
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
		done += chunk - offset
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
