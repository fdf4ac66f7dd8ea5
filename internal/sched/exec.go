package sched

import (
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
)

// This file defines the engine's external-execution seam: with
// Options.Exec set, the engine keeps every piece of its coordination
// logic — the shared internal/coord policy, per-monomer velocity-Verlet
// integration, gradient/charge folding, retry/eviction/speculation —
// and delegates only the *evaluation* of each dispatched attempt to an
// Executor. The network backend (internal/netcoord) is the production
// implementation: it ships each ExecRequest to a remote worker process
// over TCP and streams ExecResults back. Everything an Executor
// receives is standalone and serialisable (a fragment geometry plus an
// optional point-charge field); everything needed to fold results back
// onto the parent system (fragment.Extracted cap bookkeeping,
// fragment.Field parent maps) stays on the coordinator.

// ExecRequest is one dispatched attempt handed to an Executor. All
// fields are serialisable with encoding/gob — the request is exactly
// what crosses the wire to a remote worker.
type ExecRequest struct {
	// Task identifies the attempt's (polymer|monomer, step, phase).
	Task coord.Task
	// Attempt numbers the dispatches of this task (0 = first try);
	// retries and speculative copies increment it.
	Attempt int
	// Charge marks an EE-MBE phase-1 charge task: evaluate partial
	// charges of the (monomer) geometry instead of energy/gradient.
	Charge bool
	// Embed marks that the run is an EE-MBE trajectory: polymer
	// evaluations must go through the embedded-evaluation path even
	// when Field is nil, so remote results match the local engine
	// bit-for-bit.
	Embed bool
	// Key is the polymer's canonical cache key ("" for charge tasks);
	// remote workers use it for their local warm-start caches.
	Key string
	// Geom is the standalone capped fragment geometry to evaluate.
	Geom *molecule.Geometry
	// Field is the external point-charge field (nil in vacuum and in
	// round-0 charge tasks).
	Field *integrals.PointCharges
}

// ExecResult is the outcome of one executed attempt. Exactly one
// ExecResult must be delivered per Execute call — a worker death is
// reported as a result with WorkerDown set, never silently dropped.
type ExecResult struct {
	// Worker is the engine worker slot the attempt was dispatched to.
	Worker int
	// Task echoes the request's task identity.
	Task coord.Task
	// E and Grad are the fragment energy (Ha) and gradient (Ha/Bohr,
	// 3·natoms, caps included) of a successful polymer evaluation.
	E    float64
	Grad []float64
	// FieldGrad is the gradient on the external field sites (embedded
	// evaluations only).
	FieldGrad []float64
	// Charges holds the per-fragment-atom partial charges of a charge
	// task.
	Charges []float64
	// Iters reports SCF iterations (0 for stateless evaluators);
	// Skipped marks a worker-side skip-tolerance cache reuse.
	Iters   int
	Skipped bool
	// Err marks the attempt as failed: the payload is invalid and the
	// coordinator re-queues the task against the retry budget.
	Err error
	// WorkerDown reports that the worker slot died with this attempt
	// (connection lost, heartbeat deadline missed, process killed); the
	// coordinator evicts the slot and reclaims the task.
	WorkerDown bool
}

// Executor evaluates dispatched attempts outside the engine's own
// goroutine pool — the seam the network backend plugs into.
//
// Contract: Workers() is the number of worker slots and must stay
// constant for the lifetime of one engine Run (slots are the dense
// coordinator handles 0..Workers()-1; see coord.Backend). Execute must
// not block and is only ever called for an idle slot, so at most one
// attempt is outstanding per slot: an ExecResult reports no cost, so the
// scheduling core never sizes a multi-task hand-off for a slot. Every Execute must eventually
// produce exactly one ExecResult on Results() — dispatching to a dead
// slot yields an immediate WorkerDown failure result. The Results
// channel must be buffered for at least Workers() outstanding results
// so executors never block delivering.
type Executor interface {
	// Workers returns the fixed number of worker slots.
	Workers() int
	// Execute starts req on idle slot w without blocking.
	Execute(w int, req ExecRequest)
	// Results returns the channel executed attempts are delivered on.
	Results() <-chan ExecResult
}
