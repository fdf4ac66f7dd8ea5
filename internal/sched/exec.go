package sched

import (
	"fmt"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
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
//
// Both substrates build the same ExecRequest and run it through
// Attempt: the engine's in-process workers call it directly, a remote
// worker calls it on the decoded request and only packs the wire
// message. What one attempt does is therefore written once.

// ExecRequest is one dispatched attempt, run by Attempt in process or
// handed to an Executor. All fields are serialisable with encoding/gob
// — the request is exactly what crosses the wire to a remote worker.
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
	// evaluations go through the embedded-evaluation path even when
	// Field is nil.
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
	// Iters reports SCF iterations (0 for stateless evaluators).
	Iters int
	// Err marks the attempt as failed: the payload is invalid and the
	// coordinator re-queues the task against the retry budget.
	Err error
	// WorkerDown reports that the worker slot died with this attempt
	// (connection lost, heartbeat deadline missed, process killed); the
	// coordinator evicts the slot and reclaims the task.
	WorkerDown bool
}

// Attempt runs one dispatched attempt on eval, warm-starting polymer
// evaluations from cache (nil disables warm starts): a charge task
// derives the fragment's partial charges, an embedded run evaluates the
// polymer in its field (even an empty one, so every polymer of an
// EE-MBE run takes the same path), a vacuum run evaluates it plainly.
// An evaluator panic becomes a failed attempt the coordinator retries,
// instead of a dead worker that wedges the run. Attempt leaves Worker
// and WorkerDown to the caller.
func Attempt(eval fragment.Evaluator, cache *warmstart.Cache, req ExecRequest) (res ExecResult) {
	res.Task = req.Task
	defer func() {
		if r := recover(); r != nil {
			res = ExecResult{Task: req.Task, Err: fmt.Errorf("evaluator panic: %v", r)}
		}
	}()
	switch {
	case req.Charge:
		cs, ok := eval.(fragment.ChargeSource)
		if !ok {
			res.Err = fmt.Errorf("evaluator %T cannot derive monomer charges", eval)
			return res
		}
		res.Charges, res.Iters, res.Err = cs.PartialCharges(req.Geom, req.Field)
		if res.Err == nil && len(res.Charges) != req.Geom.N() {
			res.Err = fmt.Errorf("charge source returned %d values for %d atoms", len(res.Charges), req.Geom.N())
		}
	case req.Embed:
		ee, ok := eval.(fragment.EmbeddedEvaluator)
		if !ok {
			res.Err = fmt.Errorf("evaluator %T cannot evaluate embedded fragments", eval)
			return res
		}
		res.E, res.Grad, res.FieldGrad, res.Iters, res.Err = fragment.EvaluateEmbeddedWithCache(ee, cache, req.Key, req.Geom, req.Field)
	default:
		res.E, res.Grad, res.Iters, res.Err = fragment.EvaluateWithCache(eval, cache, req.Key, req.Geom)
	}
	return res
}

// Executor evaluates dispatched attempts outside the engine's own
// goroutine pool — the seam the network backend plugs into.
//
// Contract: Workers() is the number of worker slots and must stay
// constant for the lifetime of one engine Run (slots are the dense
// coordinator handles 0..Workers()-1; see coord.Backend). Execute must
// not block and is only ever called for an idle slot, so at most one
// attempt is outstanding per slot: an ExecResult reports no cost, so
// the scheduling core neither sizes a multi-task hand-off for a slot
// nor hands it a second run while one is in flight. Every Execute must
// eventually produce exactly one ExecResult on Results() — dispatching
// to a dead slot yields an immediate WorkerDown failure result. The
// Results channel must be buffered for at least Workers() outstanding
// results so executors never block delivering.
type Executor interface {
	// Workers returns the fixed number of worker slots.
	Workers() int
	// Execute starts req on idle slot w without blocking.
	Execute(w int, req ExecRequest)
	// Results returns the channel executed attempts are delivered on.
	Results() <-chan ExecResult
}
