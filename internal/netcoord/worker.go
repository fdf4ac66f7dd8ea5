package netcoord

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// WorkerOptions configures a network worker process.
type WorkerOptions struct {
	// Slots is the number of tasks this process evaluates concurrently
	// (default 1). Each slot registers as one coordinator worker
	// handle, and the coordinator groups all of a process's slots under
	// one group coordinator.
	Slots int
	// WarmStart enables the worker-local warm-start cache: polymers
	// re-dispatched to this process seed their SCF from the cached
	// converged state. The cache survives redials, so a coordinator
	// restart keeps the incremental-SCF advantage.
	WarmStart bool
	// Redial is the pause between dial attempts after a failed dial or
	// a lost connection (default 500 ms). Workers redial until the
	// context is cancelled — that is what lets them survive coordinator
	// restarts. Negative disables redialling: the worker exits after
	// one session.
	Redial time.Duration
	// Eval overrides the evaluator instead of building it from the
	// coordinator's Welcome spec — the hook tests and benchmarks
	// use to run instrumented potentials.
	Eval fragment.Evaluator
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...interface{})
}

func (o *WorkerOptions) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// errRejected marks a coordinator handshake rejection — deterministic,
// so the worker must not redial into the same refusal forever.
var errRejected = errors.New("netcoord: registration rejected")

// RunWorker dials the coordinator at addr, registers Slots evaluation
// slots, and serves tasks until ctx is cancelled. Connection loss (a
// coordinator restart, a severed link) sends it back to the dial loop;
// a handshake rejection (bad version) is fatal. The error is nil when
// the worker exits because ctx ended.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	redial := opts.Redial
	if redial == 0 {
		redial = 500 * time.Millisecond
	}
	var cache *warmstart.Cache
	if opts.WarmStart {
		cache = warmstart.NewCache()
	}
	for {
		err := workerSession(ctx, addr, &opts, cache)
		switch {
		case ctx.Err() != nil:
			return nil
		case errors.Is(err, errRejected):
			return err
		case redial < 0:
			return err
		}
		if err != nil {
			opts.logf("netcoord worker: session ended: %v (redialling in %s)", err, redial)
		}
		select {
		case <-time.After(redial):
		case <-ctx.Done():
			return nil
		}
	}
}

// workerSession runs one dial-handshake-serve cycle.
func workerSession(ctx context.Context, addr string, opts *WorkerOptions, cache *warmstart.Cache) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Cancellation unblocks the decode loop by closing the connection.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	var encMu sync.Mutex
	send := func(f *frame) error {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Encode(f)
	}

	if err := send(&frame{Hello: &Hello{Magic: Magic, Version: ProtocolVersion, Slots: opts.Slots}}); err != nil {
		return fmt.Errorf("netcoord: handshake send: %w", err)
	}
	var wf frame
	if err := dec.Decode(&wf); err != nil {
		return fmt.Errorf("netcoord: handshake read: %w", err)
	}
	if wf.Welcome == nil {
		return errors.New("netcoord: coordinator did not answer the handshake with a Welcome")
	}
	if wf.Welcome.Reject != "" {
		return fmt.Errorf("%w: %s", errRejected, wf.Welcome.Reject)
	}
	eval := opts.Eval
	if eval == nil {
		if eval, err = wf.Welcome.Eval.Build(); err != nil {
			return err
		}
	}
	opts.logf("netcoord worker: registered %d slot(s) with %s (%s potential)",
		opts.Slots, addr, wf.Welcome.Eval.Potential)

	for {
		f := new(frame)
		if err := dec.Decode(f); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("netcoord: connection lost: %w", err)
		}
		switch {
		case f.Ping != nil:
			if err := send(&frame{Pong: &Pong{Seq: f.Ping.Seq}}); err != nil {
				return fmt.Errorf("netcoord: pong send: %w", err)
			}
		case f.Task != nil:
			// The coordinator dispatches at most one attempt per slot,
			// so concurrency is bounded by Slots without further
			// accounting here; results multiplex onto the shared
			// encoder. A send failure is detected by the decode loop
			// (the connection is gone either way).
			go func(tm *TaskMsg) {
				res := evaluateTask(eval, cache, tm)
				if err := send(&frame{Result: res}); err != nil {
					opts.logf("netcoord worker: result send failed: %v", err)
				}
			}(f.Task)
		}
	}
}

// evaluateTask runs one attempt through sched.Attempt, the function
// the engine's in-process workers run, and packs its outcome into the
// wire message.
func evaluateTask(eval fragment.Evaluator, cache *warmstart.Cache, tm *TaskMsg) *ResultMsg {
	xr := sched.Attempt(eval, cache, tm.Req)
	res := &ResultMsg{Slot: tm.Slot, Task: xr.Task, E: xr.E, Grad: xr.Grad,
		FieldGrad: xr.FieldGrad, Charges: xr.Charges, Iters: xr.Iters}
	if xr.Err != nil {
		res.Err = xr.Err.Error()
	}
	return res
}
