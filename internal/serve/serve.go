// Package serve is the multi-tenant trajectory server (ROADMAP item 4,
// DESIGN.md §12): fragmd as a service. Clients submit molecules over an
// HTTP/JSON API (stdlib net/http — the module stays zero-dep), the
// server runs each as an asynchronous MBE AIMD trajectory, streams
// per-step statistics live, and serves results.
//
// Three properties define the design:
//
//   - Admission-controlled fair scheduling: submissions are bounded by
//     a queue cap (overload is an immediate 503, never an unbounded
//     backlog), and the dispatcher drains per-tenant FIFOs round-robin,
//     so a tenant submitting thousands of jobs cannot starve one
//     submitting a handful.
//
//   - Shared incremental-evaluation state: jobs over the same system
//     under the same physics share one warm-start cache, so a fleet of
//     near-identical trajectories pays the cold-start cost once. Sharing
//     can never relax a job's accuracy: warm starts are exact.
//
//   - Durable work: every job is persisted at admission and
//     checkpointed (internal/resilience, crash-durably) every
//     CheckpointEvery steps, so Drain parks running jobs at their next
//     chunk boundary and a restarted server resumes every non-terminal
//     job with no lost or duplicated steps — every job runs through
//     the same chunked driver as the CLI (internal/traj), so a resumed
//     job reproduces the uninterrupted trajectory's energies.
//
// The server can also front a netcoord worker fleet (Options.
// Coordinator): evaluations then execute in remote worker processes.
// Because a fleet lease serves one engine run, concurrent jobs
// time-share the fleet at chunk granularity instead of running truly
// concurrently.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/traj"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Options configures a Server.
type Options struct {
	// StateDir is the durable root: jobs/<id>.json records and
	// ck/<id>.ck checkpoints. Required.
	StateDir string
	// MaxActive bounds concurrently running jobs (default 4).
	MaxActive int
	// MaxQueued bounds admitted-but-not-running jobs across all tenants
	// (default 256); beyond it submissions fail with ErrBusy (HTTP 503).
	MaxQueued int
	// CheckpointEvery is the trajectory chunk length in MD steps
	// (default 5): the checkpoint cadence, and therefore the drain
	// latency bound — a drain waits at most one chunk per running job.
	CheckpointEvery int
	// JobWorkers is the default per-job evaluation goroutine count when
	// a spec leaves Workers zero (default 1 — server throughput comes
	// from job concurrency, not per-job width).
	JobWorkers int

	// Coordinator, when non-nil, runs every evaluation on the connected
	// netcoord worker fleet. Workers build their evaluator from the
	// handshake, so a job requesting physics other than the
	// coordinator's Eval is rejected at admission rather than silently
	// computed with the fleet's.
	Coordinator *netcoord.Coordinator
	// FleetMinWorkers is the fleet size each chunk waits for (default 1).
	FleetMinWorkers int

	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// ErrBusy rejects a submission when the queue is at MaxQueued.
var ErrBusy = errors.New("serve: queue full")

// ErrDraining rejects a submission while the server is draining.
var ErrDraining = errors.New("serve: draining")

// Server is a multi-tenant trajectory server. Create one with New,
// mount Handler on an http.Server, and stop with Drain (graceful,
// checkpoint-and-park) or Close (immediate, cancel-and-park).
type Server struct {
	opts    Options
	jobsDir string
	ckDir   string

	ctx    context.Context // root of every job context; Close cancels
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	pending  map[string][]*job // per-tenant FIFO
	ring     []string          // tenant round-robin order
	rr       int
	queuedN  int
	activeN  int
	draining bool
	closed   bool
	nextID   int
	warmPool map[string]*warmstart.Cache
	wg       sync.WaitGroup // running jobs
}

// New builds a server, recovers every non-terminal job found in
// StateDir (queued and running records re-enter the queue; a running
// record means the previous process died mid-job), and starts
// dispatching.
func New(opts Options) (*Server, error) {
	if opts.StateDir == "" {
		return nil, errors.New("serve: Options.StateDir is required")
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = 4
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 256
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 5
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.FleetMinWorkers <= 0 {
		opts.FleetMinWorkers = 1
	}
	s := &Server{
		opts:     opts,
		jobsDir:  filepath.Join(opts.StateDir, "jobs"),
		ckDir:    filepath.Join(opts.StateDir, "ck"),
		jobs:     map[string]*job{},
		pending:  map[string][]*job{},
		warmPool: map[string]*warmstart.Cache{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for _, dir := range []string{s.jobsDir, s.ckDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// recover scans the jobs directory and re-enqueues every non-terminal
// record. Terminal records stay loaded so results remain fetchable
// across restarts.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var recs []*Record
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(s.jobsDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		rec := new(Record)
		if err := json.Unmarshal(data, rec); err != nil {
			return fmt.Errorf("serve: job record %s: %w", path, err)
		}
		if rec.Schema != RecordSchema {
			return fmt.Errorf("serve: job record %s has schema %q, want %q", path, rec.Schema, RecordSchema)
		}
		recs = append(recs, rec)
	}
	// Deterministic revival order: by ID, which is submission order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Spec.ID < recs[j].Spec.ID })
	revived := 0
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.Spec.ID, "j-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		j := s.newJob(rec.Spec)
		j.status = rec.Status
		j.errMsg = rec.Error
		j.done = rec.StepsDone
		j.stats = rec.Stats
		j.e0, j.hasE0 = rec.E0, rec.HasE0
		s.jobs[j.spec.ID] = j
		if !rec.Status.terminal() {
			j.status = StatusQueued
			s.enqueueLocked(j)
			revived++
		}
	}
	if revived > 0 {
		s.logf("serve: recovered %d unfinished job(s) from %s", revived, s.opts.StateDir)
	}
	return nil
}

// newJob wires a job's context and paths; no locking needed beyond the
// caller's.
func (s *Server) newJob(spec JobSpec) *job {
	j := &job{
		spec:    spec,
		recPath: filepath.Join(s.jobsDir, spec.ID+".json"),
		ckPath:  filepath.Join(s.ckDir, spec.ID+".ck"),
		status:  StatusQueued,
		update:  make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(s.ctx)
	return j
}

// persist writes the job's durable record; callers hold j.mu (not
// s.mu — record writes happen off the scheduler lock).
func (s *Server) persistLocked(j *job) error {
	data, err := json.Marshal(j.recordLocked())
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", j.spec.ID, err)
	}
	if err := resilience.AtomicWriteFile(j.recPath, data); err != nil {
		return fmt.Errorf("serve: persist job %s: %w", j.spec.ID, err)
	}
	return nil
}

// Submit validates and admits one job: the spec is normalized, the
// queued record is made durable, and only then is the job visible and
// eligible to run — an acknowledged submission survives any crash.
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	if err := spec.normalize(); err != nil {
		return JobView{}, fmt.Errorf("serve: invalid job: %w", err)
	}
	if c := s.opts.Coordinator; c != nil && spec.eval().Canonical() != c.Eval().Canonical() {
		return JobView{}, fmt.Errorf("serve: invalid job: this server fronts a %s/%s worker fleet; the job's potential/basis/scs/ri_screen must match",
			c.Eval().Potential, c.Eval().Basis)
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return JobView{}, ErrDraining
	}
	if s.queuedN >= s.opts.MaxQueued {
		s.mu.Unlock()
		return JobView{}, ErrBusy
	}
	spec.ID = fmt.Sprintf("j-%06d", s.nextID)
	s.nextID++
	// Reserve queue capacity while the record is written outside the
	// lock, so concurrent submitters cannot oversubscribe the cap.
	s.queuedN++
	s.mu.Unlock()

	j := s.newJob(spec)
	j.mu.Lock()
	err := s.persistLocked(j)
	view := j.viewLocked()
	j.mu.Unlock()

	s.mu.Lock()
	s.queuedN-- // enqueueLocked re-counts it
	if err != nil {
		s.mu.Unlock()
		return JobView{}, err
	}
	s.jobs[spec.ID] = j
	s.enqueueLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
	return view, nil
}

// enqueueLocked appends the job to its tenant FIFO; callers hold s.mu.
func (s *Server) enqueueLocked(j *job) {
	t := j.spec.Tenant
	if _, ok := s.pending[t]; !ok {
		s.ring = append(s.ring, t)
	}
	s.pending[t] = append(s.pending[t], j)
	s.queuedN++
}

// popNextLocked removes and returns the next job in tenant round-robin
// order (nil when nothing is queued); callers hold s.mu.
func (s *Server) popNextLocked() *job {
	for range s.ring {
		t := s.ring[s.rr%len(s.ring)]
		s.rr++
		q := s.pending[t]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		s.pending[t] = q[1:]
		s.queuedN--
		return j
	}
	return nil
}

// dispatchLocked launches queued jobs while capacity allows; callers
// hold s.mu.
func (s *Server) dispatchLocked() {
	for !s.draining && !s.closed && s.activeN < s.opts.MaxActive {
		j := s.popNextLocked()
		if j == nil {
			return
		}
		s.activeN++
		j.mu.Lock()
		j.status = StatusRunning
		j.notifyLocked()
		j.mu.Unlock()
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel terminates a job: a queued job is cancelled in place, a
// running one has its context cancelled and finishes as cancelled at
// the next evaluation boundary.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: no job %s", id)
	}
	// Remove from the pending FIFO if still queued, so the dispatcher
	// cannot race the cancellation.
	q := s.pending[j.spec.Tenant]
	for i, qj := range q {
		if qj == j {
			s.pending[j.spec.Tenant] = append(q[:i:i], q[i+1:]...)
			s.queuedN--
			break
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return nil
	}
	j.cancelled = true
	j.cancel()
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.notifyLocked()
		if err := s.persistLocked(j); err != nil {
			return err
		}
	}
	return nil
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// TenantCounts is the per-tenant job census (GET /v1/stats).
type TenantCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Stats returns the per-tenant census and the drain flag.
func (s *Server) Stats() (map[string]TenantCounts, bool) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	draining := s.draining
	s.mu.Unlock()
	out := map[string]TenantCounts{}
	for _, j := range jobs {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		c := out[j.spec.Tenant]
		switch st {
		case StatusQueued:
			c.Queued++
		case StatusRunning:
			c.Running++
		case StatusDone:
			c.Done++
		case StatusFailed:
			c.Failed++
		case StatusCancelled:
			c.Cancelled++
		}
		out[j.spec.Tenant] = c
	}
	return out, draining
}

// Drain gracefully quiesces the server: admissions stop (503), queued
// jobs stay queued (durably, for the next process), and running jobs
// park at their next chunk boundary with a fresh checkpoint. It
// returns when no job is running or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.logf("serve: draining: admissions stopped, parking %d running job(s)", s.activeN)
	}
	s.mu.Unlock()
	for {
		s.mu.Lock()
		n := s.activeN
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d job(s) still running: %w", n, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close stops the server immediately: every running job's context is
// cancelled, so engines abort mid-chunk and jobs park at their last
// checkpoint. Durability makes this safe — a successor server resumes
// them — but Drain is the graceful path.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// sharedCache returns the pool cache for the job's system fingerprint,
// creating it on first use; nil when the spec asked for no warm start.
func (s *Server) sharedCache(sp *JobSpec, g *molecule.Geometry) *warmstart.Cache {
	if !sp.Warm {
		return nil
	}
	key := sp.fingerprint(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.warmPool[key]
	if !ok {
		c = warmstart.NewCache()
		s.warmPool[key] = c
	}
	return c
}

// runJob executes one job to a terminal status or a parked (queued)
// state, then releases its active slot.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	s.execute(j)
	s.mu.Lock()
	s.activeN--
	s.dispatchLocked()
	s.mu.Unlock()
}

// park persists the job as queued at its last durable boundary: stats
// past the checkpoint are discarded (the resumed run re-reports them
// identically), so the record never claims steps a restart cannot
// reproduce.
func (s *Server) park(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusQueued
	if len(j.stats) > j.done {
		j.stats = j.stats[:j.done]
	}
	j.notifyLocked()
	if err := s.persistLocked(j); err != nil {
		s.logf("serve: park %s: %v", j.spec.ID, err)
	}
}

// finish persists a terminal status and drops the checkpoint.
func (s *Server) finish(j *job, st Status, errMsg string) {
	j.mu.Lock()
	j.status = st
	j.errMsg = errMsg
	j.notifyLocked()
	err := s.persistLocked(j)
	j.mu.Unlock()
	if err != nil {
		s.logf("serve: finish %s: %v", j.spec.ID, err)
	}
	os.Remove(j.ckPath) // best-effort tidy; a stale checkpoint is ignored anyway
	s.logf("serve: job %s (%s) %s", j.spec.ID, j.spec.Tenant, st)
}

// execute is the server's adapter over traj.Run (DESIGN.md §7): the
// job is parked at the next chunk boundary once the server drains, its
// record is persisted before every checkpoint, and stats are keyed by
// global step so a resumed run re-reports any overlap idempotently.
func (s *Server) execute(j *job) {
	sp := &j.spec
	f, err := sp.system()
	if err != nil {
		s.finish(j, StatusFailed, err.Error())
		return
	}
	eval, err := sp.eval().Build()
	if err != nil {
		s.finish(j, StatusFailed, err.Error())
		return
	}
	workers := sp.Workers
	if workers == 0 {
		workers = s.opts.JobWorkers
	}
	cfg := traj.Config{
		Frag: f, Eval: eval, Steps: sp.Steps, TempK: sp.TempK, Seed: sp.Seed,
		CkPath: j.ckPath, CkEvery: s.opts.CheckpointEvery,
		Opts: sched.Options{
			Workers: workers, Async: true, Dt: sp.DtFs * chem.AtomicTimePerFs,
			WarmStart: sp.Warm, Cache: s.sharedCache(sp, f.Geom),
		},
	}
	// A job with a checkpoint resumes from it; one without starts fresh.
	_, statErr := os.Stat(j.ckPath)
	cfg.Resume = !errors.Is(statErr, os.ErrNotExist)

	done, err := traj.Run(j.ctx, cfg, traj.Hooks{
		Resumed: func(ck *resilience.Checkpoint) {
			j.mu.Lock()
			j.done = ck.StepsDone
			if len(j.stats) > j.done {
				j.stats = j.stats[:j.done]
			}
			j.mu.Unlock()
			s.logf("serve: job %s resumes at step %d/%d", sp.ID, ck.StepsDone, sp.Steps)
		},
		BeforeChunk: func(o *sched.Options) (func(), error) {
			if s.Draining() {
				return nil, traj.ErrStop
			}
			if c := s.opts.Coordinator; c != nil {
				return c.Lease(j.ctx, s.opts.FleetMinWorkers, o)
			}
			return nil, nil
		},
		Step: func(st sched.StepStats, e0 float64) {
			rec := StepRecord{Step: st.Step, Etot: st.Etot, Epot: st.Epot, Ekin: st.Ekin,
				SCFIters: st.SCFIters}
			j.mu.Lock()
			j.e0, j.hasE0 = e0, true
			if st.Step < len(j.stats) {
				j.stats[st.Step] = rec
			} else {
				for len(j.stats) < st.Step {
					// Unreachable by construction (steps finalize in order),
					// but never leave a hole silently.
					j.stats = append(j.stats, StepRecord{Step: len(j.stats)})
				}
				j.stats = append(j.stats, rec)
			}
			j.notifyLocked()
			j.mu.Unlock()
		},
		AfterChunk: func(done int) error {
			j.mu.Lock()
			defer j.mu.Unlock()
			j.done = done
			return s.persistLocked(j)
		},
	})
	switch {
	case j.ctx.Err() != nil:
		j.mu.Lock()
		cancelled := j.cancelled
		j.mu.Unlock()
		if cancelled {
			s.finish(j, StatusCancelled, "")
		} else {
			s.park(j) // server shutdown mid-chunk, not a client decision
		}
	case err != nil:
		s.finish(j, StatusFailed, err.Error())
	case done < sp.Steps:
		s.park(j) // drained at a chunk boundary
	default:
		s.finish(j, StatusDone, "")
	}
}
