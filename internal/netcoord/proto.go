// Package netcoord is the network worker backend of the shared
// scheduling core (ROADMAP item 3, the paper's §VII hierarchy over a
// real transport): a coordinator process drives the ordinary
// sched.Engine while the fragment evaluations execute in separate
// worker processes connected over TCP. The transport is stdlib-only —
// net + encoding/gob — keeping the module at zero external
// dependencies.
//
// Roles:
//
//   - Worker (fragmd worker -connect host:port, or RunWorker): dials
//     the coordinator, handshakes (magic + protocol version), receives
//     an evaluator specification, then evaluates serialized tasks —
//     capped fragment geometries plus optional embedding fields — and
//     streams results back. On connection loss it redials, so workers
//     survive a coordinator restart.
//
//   - Coordinator (fragmd coordinate -listen :port -min-workers N, or
//     Listen): accepts workers, heartbeats every connection, and
//     exposes the registered worker slots as a sched.Executor. Each
//     worker process becomes one group coordinator of the hierarchical
//     policy; a process offering multiple slots evaluates that many
//     tasks concurrently.
//
// Failure semantics (DESIGN.md §10): a dead connection, missed
// heartbeat deadline, or killed worker process surfaces as a
// WorkerDown result for each of the process's in-flight attempts,
// which the coordinator's existing eviction path turns into re-queued
// work on surviving workers — exactly the injected-death path of
// internal/resilience. Late results from a worker already declared
// dead are dropped at the transport (the connection is closed before
// the eviction is reported), and duplicate completions are dropped by
// coord.Policy.Completed, so every task still completes exactly once.
package netcoord

import (
	"time"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// Magic is the handshake tag both ends require before speaking the
// protocol; a stray client (or a port collision) is rejected at the
// first message.
const Magic = "fragmd-netcoord"

// ProtocolVersion is the wire schema version. The coordinator rejects
// workers speaking a different version during the handshake — mixed
// deployments fail loudly at registration, never mid-trajectory.
//
// History: 1 — initial; 2 — Welcome.Eval became potential.Spec.
const ProtocolVersion = 2

// DefaultHeartbeat is the default coordinator→worker ping interval.
const DefaultHeartbeat = 1 * time.Second

// Hello is the worker's first message after dialing.
type Hello struct {
	// Magic must equal Magic; Version must equal ProtocolVersion.
	Magic   string
	Version int
	// Slots is the number of tasks the worker process evaluates
	// concurrently (≥ 1); each slot becomes one coordinator worker
	// handle.
	Slots int
}

// Welcome is the coordinator's handshake reply.
type Welcome struct {
	// Reject, when non-empty, refuses the registration (version
	// mismatch, bad magic) and the connection is closed.
	Reject string
	// Eval tells the worker which potential to build (ignored by
	// workers running with an explicit WorkerOptions.Eval override): one
	// source of truth for the physics, the coordinator's flags.
	Eval potential.Spec
	// Heartbeat is the coordinator's ping interval; a worker can use it
	// to size its own liveness expectations.
	Heartbeat time.Duration
}

// TaskMsg dispatches one attempt to a worker slot.
type TaskMsg struct {
	// Slot is the process-local slot (0..Hello.Slots-1) the attempt
	// occupies; results echo it so the coordinator can join them to the
	// in-flight attempt.
	Slot int
	// Req is the engine's execution request: task identity, standalone
	// capped geometry, optional embedding field.
	Req sched.ExecRequest
}

// ResultMsg reports one executed attempt back to the coordinator.
type ResultMsg struct {
	// Slot echoes TaskMsg.Slot.
	Slot int
	// Task echoes the task identity for transport-level sanity checks.
	Task coord.Task
	// E, Grad, FieldGrad, Charges, Iters and Skipped mirror
	// sched.ExecResult.
	E         float64
	Grad      []float64
	FieldGrad []float64
	Charges   []float64
	Iters     int
	Skipped   bool
	// Err is the evaluation failure, serialized as text ("" = success).
	Err string
}

// Ping is the coordinator's periodic liveness probe; Pong is the
// worker's reply. Any frame counts as liveness, so a worker busy
// streaming results never needs to win a race against the deadline.
type Ping struct{ Seq int64 }

// Pong echoes a Ping's sequence number.
type Pong struct{ Seq int64 }

// frame is the single gob-encoded envelope both directions use:
// exactly one field is non-nil per frame. gob omits nil pointers, so
// the envelope costs one byte per absent variant.
type frame struct {
	Hello   *Hello
	Welcome *Welcome
	Task    *TaskMsg
	Result  *ResultMsg
	Ping    *Ping
	Pong    *Pong
}
