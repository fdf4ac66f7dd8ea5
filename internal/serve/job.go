package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"

	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

// Status is a job's lifecycle state. queued and running jobs are
// revived after a server restart; done, failed and cancelled are
// terminal.
type Status string

const (
	// StatusQueued marks a job admitted but not yet running — including
	// jobs parked by a drain, which resume from their checkpoint.
	StatusQueued Status = "queued"
	// StatusRunning marks a job whose trajectory is being integrated.
	StatusRunning Status = "running"
	// StatusDone marks a job that completed every requested step.
	StatusDone Status = "done"
	// StatusFailed marks a job whose evaluation errored; Error says why.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job stopped by POST /v1/jobs/{id}/cancel.
	StatusCancelled Status = "cancelled"
)

// terminal reports whether a status can never change again.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobSpec is one trajectory request, submitted as the JSON body of
// POST /v1/jobs. ID is assigned by the server; every other field is
// client input. Zero values select the documented defaults.
type JobSpec struct {
	// ID is the server-assigned job identifier (ignored on submit).
	ID string `json:"id,omitempty"`
	// Tenant names the submitting client for fair-share scheduling;
	// required.
	Tenant string `json:"tenant"`
	// XYZ is the inline geometry in XYZ format (Å); required.
	XYZ string `json:"xyz"`
	// BoxA requests periodic (minimum-image) boundaries: either one
	// edge length (cubic) or three, in Å. It overrides any cell=
	// comment in the XYZ; empty keeps the XYZ's cell, or open
	// boundaries if the XYZ has none.
	BoxA []float64 `json:"box,omitempty"`

	// Potential selects the evaluator ("rimp2", "hf", "hf4c", "lj";
	// default "rimp2"); Basis, SCS and RIScreen mirror the CLI knobs.
	Potential string  `json:"potential,omitempty"`
	Basis     string  `json:"basis,omitempty"`
	SCS       bool    `json:"scs,omitempty"`
	RIScreen  float64 `json:"ri_screen,omitempty"`

	// AtomsPerMonomer fragments the cluster molecule-by-molecule
	// (default 3); DimerCutA/TrimerCutA are centroid cutoffs in Å
	// (0 = none).
	AtomsPerMonomer int     `json:"atoms_per_monomer,omitempty"`
	DimerCutA       float64 `json:"dimer_cut,omitempty"`
	TrimerCutA      float64 `json:"trimer_cut,omitempty"`

	// Steps is the trajectory length in MD steps; required ≥ 1. DtFs
	// (default 0.5 fs), TempK (default 150 K) and Seed (default 1) fix
	// the integration and the Maxwell–Boltzmann draw, so a spec is a
	// complete, reproducible description of its trajectory.
	Steps int     `json:"steps"`
	DtFs  float64 `json:"dt_fs,omitempty"`
	TempK float64 `json:"temp_k,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Warm engages the exact warm-start guess; jobs over the same system
	// share one warm-start cache (see the package comment's sharing
	// semantics).
	Warm bool `json:"warm,omitempty"`

	// Workers caps this job's evaluation goroutines (0 = the server's
	// per-job default), so one greedy job cannot monopolise the host;
	// at most runtime.GOMAXPROCS(0), checked at submit.
	Workers int `json:"workers,omitempty"`
}

// normalize applies defaults and validates everything cheap to check at
// admission time, so a bad spec is a 400 at submit, never a failed job.
func (sp *JobSpec) normalize() error {
	if strings.TrimSpace(sp.Tenant) == "" {
		return errors.New("tenant is required")
	}
	if sp.XYZ == "" {
		return errors.New("xyz geometry is required")
	}
	if sp.Steps < 1 {
		return errors.New("steps must be at least 1")
	}
	if sp.Potential == "" {
		sp.Potential = "rimp2"
	}
	if sp.Basis == "" {
		sp.Basis = "sto-3g"
	}
	if sp.AtomsPerMonomer == 0 {
		sp.AtomsPerMonomer = 3
	}
	if sp.DtFs == 0 {
		sp.DtFs = 0.5
	}
	if sp.DtFs < 0 {
		return errors.New("dt_fs must be positive")
	}
	if sp.TempK == 0 {
		sp.TempK = 150
	}
	if sp.TempK < 0 {
		return errors.New("temp_k must not be negative")
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Workers < 0 {
		return errors.New("workers must not be negative")
	}
	if most := runtime.GOMAXPROCS(0); sp.Workers > most {
		return fmt.Errorf("workers must be at most %d (the server's GOMAXPROCS), got %d", most, sp.Workers)
	}
	if _, err := sp.eval().Build(); err != nil {
		return fmt.Errorf("potential: %v", err)
	}
	_, err := sp.system()
	return err
}

// eval is the evaluator description the job needs — the same portable
// form the network handshake ships, so serve and netcoord agree on the
// physics vocabulary by construction.
func (sp *JobSpec) eval() potential.Spec {
	return potential.Spec{Potential: sp.Potential, Basis: sp.Basis, SCS: sp.SCS, RIScreen: sp.RIScreen}
}

// system parses and fragments the spec's geometry.
func (sp *JobSpec) system() (*fragment.Fragmentation, error) {
	return fragment.LoadSystem(strings.NewReader(sp.XYZ), sp.BoxA, sp.AtomsPerMonomer, sp.DimerCutA, sp.TrimerCutA)
}

// fingerprint keys the shared warm-start cache pool: jobs share a cache
// exactly when they describe the same system under the same physics, so
// a shared guess is always a guess for the job's own fragments. Polymer
// cache keys are monomer-index based, so
// anything that changes the fragment identity must change the pool key.
// The boundary conditions are part of the system: a periodic job never
// shares a pool with an open-boundary one, and two periodic jobs share
// only when their cells match exactly.
func (sp *JobSpec) fingerprint(g *molecule.Geometry) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%g|", sp.eval().Fingerprint(),
		sp.AtomsPerMonomer, sp.DimerCutA, sp.TrimerCutA)
	if c := g.Cell; c != nil {
		fmt.Fprintf(h, "cell=%g,%g,%g|", c.L[0], c.L[1], c.L[2])
	} else {
		fmt.Fprintf(h, "open|")
	}
	for _, a := range g.Atoms {
		fmt.Fprintf(h, "%d,", a.Z)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StepRecord is one completed MD step of a job — the serve-side
// projection of sched.StepStats, keyed by the global step index so
// steps run again after a crash between a record write and its
// checkpoint overwrite idempotently.
type StepRecord struct {
	Step     int     `json:"step"`
	Etot     float64 `json:"etot"`
	Epot     float64 `json:"epot"`
	Ekin     float64 `json:"ekin"`
	SCFIters int     `json:"scf_iters"`
}

// Record is the durable on-disk form of a job
// (StateDir/jobs/<id>.json, written via resilience.AtomicWriteFile).
// Stats never run ahead of what a restart can reproduce: they are
// truncated to the checkpoint boundary whenever a job parks.
type Record struct {
	Schema    string       `json:"schema"`
	Spec      JobSpec      `json:"spec"`
	Status    Status       `json:"status"`
	Error     string       `json:"error,omitempty"`
	StepsDone int          `json:"steps_done"`
	E0        float64      `json:"e0,omitempty"`
	HasE0     bool         `json:"has_e0,omitempty"`
	Stats     []StepRecord `json:"stats,omitempty"`
}

// RecordSchema identifies the job-record layout.
const RecordSchema = "fragmd-serve-job/v1"

// job is the in-memory state of one trajectory. The persisted Record
// is derived from it under mu; streamers follow stats via the
// close-and-replace update channel.
type job struct {
	spec    JobSpec
	recPath string
	ckPath  string

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	status    Status
	errMsg    string
	done      int // completed global steps, durable (checkpoint boundary)
	stats     []StepRecord
	e0        float64
	hasE0     bool
	cancelled bool          // client asked; distinguishes cancel from server drain
	update    chan struct{} // closed and replaced on every visible mutation
}

// notifyLocked wakes every waiter; callers hold j.mu.
func (j *job) notifyLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

// snapshot returns the job's durable record; callers hold j.mu.
func (j *job) recordLocked() *Record {
	rec := &Record{
		Schema: RecordSchema, Spec: j.spec, Status: j.status, Error: j.errMsg,
		StepsDone: j.done, E0: j.e0, HasE0: j.hasE0,
	}
	rec.Stats = append(rec.Stats, j.stats...)
	return rec
}

// JobView is the API projection of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant"`
	Status    Status  `json:"status"`
	Error     string  `json:"error,omitempty"`
	Steps     int     `json:"steps"`
	StepsDone int     `json:"steps_done"`
	E0        float64 `json:"e0,omitempty"`
}

// JobResult is the full terminal payload (GET /v1/jobs/{id}/result).
type JobResult struct {
	JobView
	Stats []StepRecord `json:"stats"`
}

func (j *job) viewLocked() JobView {
	return JobView{
		ID: j.spec.ID, Tenant: j.spec.Tenant, Status: j.status, Error: j.errMsg,
		Steps: j.spec.Steps, StepsDone: len(j.stats), E0: j.e0,
	}
}
