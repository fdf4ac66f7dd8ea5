package coord

import (
	"context"
	"errors"
	"fmt"
)

// Completion is one finished attempt reported by a backend.
type Completion struct {
	Worker int
	Task   Task
	// Err, when non-nil, marks the attempt as failed: the task's result
	// was lost and the driver will re-queue it against the retry budget
	// (Options.MaxRetries). Backends must not have accumulated any
	// payload for a failed attempt.
	Err error
	// WorkerDown reports that the worker died executing the attempt
	// (injected death, simulated node loss). The driver evicts it —
	// nothing is dispatched to it again — and reclaims every task still
	// in flight on it. WorkerDown without Err marks a clean last
	// completion before death; with Err the attempt itself was also
	// lost.
	WorkerDown bool
	// Seconds is the measured cost of a successful attempt on its
	// worker; 0 means unknown. RunContext predicts the task's cost at
	// its next step from it and sizes hand-offs by that prediction.
	Seconds float64
}

// handoffQuantum bounds the predicted cost of one hand-off, in seconds.
// An idle worker is handed a run of consecutive ready tasks of one step
// and phase while their summed predicted cost stays within it, so a
// microsecond evaluator pays one dispatch round trip per ~200 µs of
// work instead of per task; a task costing more than the quantum, or of
// unknown cost, goes alone. On the 512-water LJ box 20 µs runs left the
// live engine coordinator-bound and the gain flattens past 200 µs,
// while longer runs hold more work on one worker (DESIGN.md §6).
const handoffQuantum = 200e-6

// Backend executes tasks on workers. Dispatch must not block; one sweep
// of RunContext may hand an idle worker several tasks in a row (a
// hand-off), and the worker is not handed more until every one of them
// has completed — so a backend may hold back a sweep's dispatches and
// deliver them to each worker as one message when Await is next called.
// Await blocks — in real time for the live engine, in simulated time
// for the discrete-event simulator — until the next attempt finishes or
// the context is cancelled (the escape hatch from a backend that will
// never complete a task). Every dispatched attempt must be reported
// exactly once, unless its worker is reported down first. Backends
// accumulate their own payloads (energies and gradients, or FLOPs and
// clocks) before Await returns, so Run can release dependencies
// immediately afterwards; payloads of failed attempts and of duplicate
// completions of already-Completed tasks must be dropped, not
// accumulated.
type Backend interface {
	// Workers returns the number of workers and must stay constant for
	// the whole run. Worker identity is a *dense fixed handle*: workers
	// are exactly 0..Workers()-1, assigned once before the run and
	// never re-issued. An evicted handle stays dead — backends with
	// late-joining physical workers (the network backend) must park
	// them until the next run's handle assignment rather than reusing a
	// dead slot, and RunContext enforces this by aborting on any
	// completion that names an out-of-range or already-evicted worker.
	Workers() int
	// Dispatch starts t on idle worker w; m carries the coordination
	// events (batch refill, steal, attempt number, speculation) that
	// preceded the dispatch.
	Dispatch(w int, t Task, m DispatchMeta)
	// Await returns the next completion, or an error that aborts the
	// run. A backend that can block in real time must honour ctx.
	Await(ctx context.Context) (Completion, error)
}

// BackendFuncs adapts plain closures to the Backend interface, letting
// backends keep their state in run-scoped locals.
type BackendFuncs struct {
	NumWorkers int
	DispatchFn func(w int, t Task, m DispatchMeta)
	AwaitFn    func(ctx context.Context) (Completion, error)
}

// Workers reports the fixed worker count of the adapted backend.
func (b *BackendFuncs) Workers() int { return b.NumWorkers }

// Dispatch forwards to DispatchFn.
func (b *BackendFuncs) Dispatch(w int, t Task, m DispatchMeta) { b.DispatchFn(w, t, m) }

// Await forwards to AwaitFn.
func (b *BackendFuncs) Await(ctx context.Context) (Completion, error) {
	return b.AwaitFn(ctx)
}

// RunStats summarises the resilience events of one driver run.
type RunStats struct {
	// Retries counts failed attempts that were re-queued (each
	// recovered unit of work, the simulator's Result.Recoveries).
	Retries int
	// Evicted counts workers removed from service after dying.
	Evicted int
	// Speculated counts extra straggler copies dispatched.
	Speculated int
	// Duplicates counts late completions dropped because the task had
	// already completed on another worker.
	Duplicates int
	// Coalesced counts tasks dispatched behind another task in the same
	// hand-off (see handoffQuantum).
	Coalesced int
}

// Run drives the policy to completion over a backend with no deadline;
// see RunContext.
func Run(p *Policy, b Backend, onAdvance func(mono, step int32)) error {
	_, err := RunContext(context.Background(), p, b, onAdvance)
	return err
}

// RunContext drives the policy to completion over a backend: it hands
// work to idle workers group by group, then blocks on the backend for
// the next completion and releases its dependants. onAdvance fires
// whenever a monomer finishes a time step (the live backend integrates
// there); it may be nil.
//
// Hand-offs: each task's cost is predicted from the Completion.Seconds
// its previous step's attempt reported. An idle worker is handed the
// next ready task and then the tasks that follow it in dispatch order,
// while they share its step and phase and their predicted total stays
// within handoffQuantum; a task of unknown cost goes alone, so a
// backend that reports no cost dispatches one task at a time. The
// worker returns to the idle set when its last outstanding task
// completes. Completing a task only ever releases tasks of a later step
// or phase, so with one worker a run of same-step tasks pops the queue
// in exactly the order single-task dispatch would.
//
// Failure semantics: an attempt reported with Completion.Err is
// re-queued on a surviving worker until the task's retry budget
// (Options.MaxRetries) is exhausted; a completion with WorkerDown
// evicts the worker and reclaims every task still in flight on it as a
// failed attempt; with Options.Speculate, idle workers with nothing
// ready re-run the oldest in-flight task (one extra copy per task — the
// straggler defence) and the losing copy's completion is dropped. The
// context bounds the whole run: cancellation (or a deadline) aborts
// with a clear error instead of wedging on a backend that never
// completes a task.
//
// Idle workers are tracked per group: once one worker of a group is
// refused, the whole group is skipped for the rest of the sweep — a
// refusal means the group's queue and the super-coordinator are both
// empty (and stealing found nothing), which no other group's *pops* can
// change mid-sweep. This keeps the sweep O(groups + dispatches) per
// completion instead of O(idle workers), which matters when thousands
// of simulated workers sit idle in a dispatch-bound phase.
func RunContext(ctx context.Context, p *Policy, b Backend, onAdvance func(mono, step int32)) (RunStats, error) {
	var st RunStats
	nw := b.Workers()
	if nw != p.opts.Workers {
		return st, errors.New("coord: backend worker count differs from policy options")
	}
	idle := make([][]int, p.Groups())
	for w := nw - 1; w >= 0; w-- {
		g := p.GroupOf(w)
		idle[g] = append(idle[g], w) // pop order: lowest worker first
	}
	alive := nw
	evicted := make([]bool, nw)
	inflight := 0
	held := make([]heldTasks, nw)
	// cost[slot] is the last measured cost of the task in that slot of a
	// step (Policy.slot); 0 until one is reported.
	cost := make([]float64, p.tasksPerStep)
	// attempts/retries/speculated only ever hold tasks that failed or
	// were speculated — a vanishing fraction — and the speculation
	// queue is head-trimmed as tasks complete (they complete in roughly
	// dispatch order) and compacted, so the resilience bookkeeping
	// stays proportional to the in-flight window, not the task count.
	attempts := map[Task]int{} // next attempt number, absent = 0
	retries := map[Task]int{}  // failed attempts per task
	live := map[Task]int{}     // in-flight copies per task
	speculated := map[Task]bool{}
	var specQ []Task // primary dispatches in order, for straggler picks
	specHead := 0

	dispatch := func(w int, t Task, m DispatchMeta) {
		m.Attempt = attempts[t]
		b.Dispatch(w, t, m)
		held[w].add(t)
		live[t]++
		inflight++
	}
	// handOff dispatches t to idle worker w, then the ready tasks that
	// follow it while the run's predicted cost fits the quantum.
	handOff := func(w int, t Task, m DispatchMeta) {
		dispatch(w, t, m)
		if p.opts.Speculate {
			specQ = append(specQ, t)
		}
		for total := cost[p.slot(t)]; total > 0; {
			next, ok := p.peek(w)
			if !ok || next.Step != t.Step || next.Phase != t.Phase {
				return
			}
			c := cost[p.slot(next)]
			if c == 0 || total+c > handoffQuantum {
				return
			}
			next, m, _ = p.Next(w)
			dispatch(w, next, m)
			if p.opts.Speculate {
				specQ = append(specQ, next)
			}
			st.Coalesced++
			total += c
		}
	}
	// settle retires one finished copy of t from the in-flight counts.
	settle := func(t Task) {
		inflight--
		live[t]--
		if live[t] == 0 {
			delete(live, t)
		}
	}
	// lose re-queues t after a lost attempt, against its retry budget.
	lose := func(t Task, cause error) error {
		if p.Completed(t) || live[t] > 0 {
			// A twin copy already delivered the result, or is still
			// running and may yet deliver it: this copy's failure
			// neither burns the retry budget nor aborts anything —
			// speculation is an optimisation, never a new way to fail.
			return nil
		}
		retries[t]++
		if retries[t] > p.opts.MaxRetries {
			return fmt.Errorf("coord: task %v failed %d times, retry budget %d exhausted: %w",
				t, retries[t], p.opts.MaxRetries, cause)
		}
		st.Retries++
		attempts[t]++
		p.Requeue(t)
		return nil
	}
	// trimSpecQ drops completed/stale entries from the queue head and
	// reclaims the consumed prefix once it dominates the backing array.
	trimSpecQ := func() {
		for specHead < len(specQ) {
			t := specQ[specHead]
			if !p.Completed(t) && !speculated[t] && live[t] > 0 {
				break
			}
			specHead++
		}
		if specHead > 1024 && specHead*2 > len(specQ) {
			specQ = append(specQ[:0], specQ[specHead:]...)
			specHead = 0
		}
	}
	// nextSpeculation pops the oldest in-flight, not-yet-duplicated
	// task.
	nextSpeculation := func() (Task, bool) {
		trimSpecQ()
		if specHead < len(specQ) {
			t := specQ[specHead]
			specHead++
			return t, true
		}
		return Task{}, false
	}

	for !p.Done() {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("coord: run cancelled with %d tasks outstanding: %w", p.remaining, err)
		}
		for g := range idle {
			for len(idle[g]) > 0 {
				w := idle[g][len(idle[g])-1]
				t, m, ok := p.Next(w)
				if !ok {
					break
				}
				idle[g] = idle[g][:len(idle[g])-1]
				handOff(w, t, m)
			}
		}
		if p.opts.Speculate {
			for g := range idle {
				for len(idle[g]) > 0 {
					t, ok := nextSpeculation()
					if !ok {
						break
					}
					w := idle[g][len(idle[g])-1]
					idle[g] = idle[g][:len(idle[g])-1]
					speculated[t] = true
					attempts[t]++
					st.Speculated++
					dispatch(w, t, DispatchMeta{Group: p.GroupOf(w), Speculative: true})
				}
			}
		}
		if inflight == 0 {
			if p.Done() {
				break
			}
			if alive == 0 {
				return st, fmt.Errorf("coord: every worker evicted with %d tasks outstanding", p.remaining)
			}
			return st, errors.New("coord: deadlock — no ready tasks and none in flight")
		}
		c, err := b.Await(ctx)
		if err != nil {
			return st, err
		}
		// Worker identity is a dense fixed handle (see Backend.Workers):
		// a completion naming a handle outside 0..nw-1, or one already
		// evicted, is a backend identity bug (a late joiner reusing a
		// dead slot would silently rejoin the idle pool), so fail loud.
		if c.Worker < 0 || c.Worker >= nw {
			return st, fmt.Errorf("coord: completion from worker %d outside the run's dense handle range 0..%d",
				c.Worker, nw-1)
		}
		if evicted[c.Worker] {
			return st, fmt.Errorf("coord: completion from evicted worker %d — handles are never re-issued within a run; late-joining workers must wait for the next run", c.Worker)
		}
		if !held[c.Worker].retire(c.Task) {
			return st, fmt.Errorf("coord: completion of task %v, which is not in flight on worker %d", c.Task, c.Worker)
		}
		settle(c.Task)
		var stranded []Task
		if c.WorkerDown {
			st.Evicted++
			alive--
			evicted[c.Worker] = true
			stranded = held[c.Worker].drain()
			for _, t := range stranded {
				settle(t)
			}
		} else if held[c.Worker].empty() {
			g := p.GroupOf(c.Worker)
			idle[g] = append(idle[g], c.Worker)
		}
		switch {
		case c.Err != nil:
			if err := lose(c.Task, c.Err); err != nil {
				return st, err
			}
		case p.Completed(c.Task):
			st.Duplicates++ // losing copy of a speculated task
		default:
			if c.Seconds > 0 {
				cost[p.slot(c.Task)] = c.Seconds
			}
			p.Complete(c.Task, onAdvance)
		}
		for _, t := range stranded {
			if err := lose(t, fmt.Errorf("coord: worker %d evicted with the attempt in flight", c.Worker)); err != nil {
				return st, err
			}
		}
		if p.opts.Speculate {
			trimSpecQ()
		}
	}
	return st, nil
}

// heldTasks lists the tasks in flight on one worker, from head on, in
// hand-off order. Completions mostly arrive in that order, so retiring
// one is a short search from the head.
type heldTasks struct {
	tasks []Task
	head  int
}

func (h *heldTasks) add(t Task) { h.tasks = append(h.tasks, t) }

func (h *heldTasks) empty() bool { return h.head == len(h.tasks) }

// retire removes t and reports whether it was held.
func (h *heldTasks) retire(t Task) bool {
	for i := h.head; i < len(h.tasks); i++ {
		if h.tasks[i] == t {
			h.tasks[i] = h.tasks[h.head]
			h.head++
			if h.empty() {
				h.tasks, h.head = h.tasks[:0], 0
			}
			return true
		}
	}
	return false
}

// drain removes and returns every task still held.
func (h *heldTasks) drain() []Task {
	rest := h.tasks[h.head:]
	h.tasks, h.head = nil, 0
	return rest
}
