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
	// (Schedule.MaxRetries). Backends must not have accumulated any
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
// while longer runs hold more work on one worker (DESIGN.md §6). A
// worker holding one run of known cost within the quantum may be handed
// a second, so it has the next run queued while the coordinator folds
// the first; tasks dearer than the quantum never travel that way.
const handoffQuantum = 200e-6

// Backend executes tasks on workers. Dispatch must not block; one sweep
// of RunContext may hand a worker several tasks in a row (a run), and a
// backend may hold back a sweep's dispatches and deliver them to each
// worker as one message when Await is next called. A worker holds at
// most two runs: an idle worker is handed one, and a worker still
// holding exactly one run of known cost may be handed a second in a
// later sweep (see RunContext), never more within one sweep. Await
// blocks — in real time for the live engine, in simulated time for the
// discrete-event simulator — until the next attempt finishes or the
// context is cancelled (the escape hatch from a backend that will never
// complete a task). Every dispatched attempt must be reported exactly
// once, unless its worker is reported down first; a run handed to a
// worker that has already died but whose death is not yet reported is
// reclaimed with the rest of its tasks, so a dead worker need report
// nothing after its death. Backends accumulate their own payloads
// (energies and gradients, or FLOPs and clocks) before Await returns,
// so Run can release dependencies immediately afterwards; payloads of
// failed attempts and of duplicate completions of already-Completed
// tasks must be dropped, not accumulated.
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
	// Dispatch starts t on worker w; m carries the coordination events
	// (batch refill, steal, attempt number, speculation) that preceded
	// the dispatch.
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
	// Pipelined counts runs handed to a worker that still held one.
	Pipelined int
}

// Run drives the policy to completion over a backend with no deadline;
// see RunContext.
func Run(p *Policy, b Backend, onAdvance func(mono, step int32)) error {
	_, err := RunContext(context.Background(), p, b, onAdvance)
	return err
}

// RunContext drives the policy to completion over a backend: it hands
// work to workers run by run, then blocks on the backend for the next
// completion and releases its dependants. onAdvance fires whenever a
// monomer finishes a time step (the live backend integrates there); it
// may be nil.
//
// Hand-offs: each task's cost is predicted from the Completion.Seconds
// its previous step's attempt reported. An idle worker is handed the
// next ready task and then the tasks that follow it in dispatch order,
// while they share its step and phase and their predicted total stays
// within handoffQuantum; a task of unknown cost goes alone, so a
// backend that reports no cost dispatches one task at a time. Once the
// idle workers are served, a worker holding exactly one run is handed a
// second the same way, from a later sweep on, when the run's cost and
// the queue head's predicted cost are both known and within the
// quantum, the head shares the run's step and phase, and the head is a
// first attempt — a retry must not go to a worker whose death may
// already be on its way. A worker gets at most one run per sweep and
// returns to the idle set when its last outstanding task completes.
// Completing a task only ever releases tasks of a later step or phase,
// so with one worker a run of same-step tasks, and a second run of the
// same step and phase, pops the queue in exactly the order single-task
// dispatch would.
//
// Failure semantics: an attempt reported with Completion.Err is
// re-queued on a surviving worker until the task's retry budget
// (Schedule.MaxRetries) is exhausted; a completion with WorkerDown
// evicts the worker and reclaims every task still in flight on it, in
// either of its runs, as a failed attempt; with Schedule.Speculate, idle
// workers with nothing ready re-run the oldest in-flight task (one
// extra copy per task — the straggler defence) and the losing copy's
// completion is dropped. The context bounds the whole run: cancellation
// (or a deadline) aborts with a clear error instead of wedging on a
// backend that never completes a task.
//
// Idle workers are tracked per group: once one worker of a group is
// refused, the whole group is skipped for the rest of the sweep — a
// refusal means the group's queue and the super-coordinator are both
// empty (and stealing found nothing), which no other group's *pops* can
// change mid-sweep. This keeps the sweep O(groups + dispatches) per
// completion instead of O(idle workers), which matters when thousands
// of simulated workers sit idle in a dispatch-bound phase; only workers
// holding one run of known cost are considered for a second.
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
	held := make([]holding, nw)
	// cost[slot] is the last measured cost of the task in that slot of a
	// step (Policy.slot); 0 until one is reported.
	cost := make([]float64, p.tasksPerStep)
	// primed lists, once each (listed), the workers that held exactly one
	// run of known cost within the quantum when they were listed: the
	// candidates for a second run. Backends that report no cost never
	// list a worker.
	var primed []int
	listed := make([]bool, nw)
	sweep := 0
	// The resilience bookkeeping only ever holds tasks that failed or
	// were speculated — a vanishing fraction — so no dispatch writes a
	// map entry: a task without a speculative twin is in flight exactly
	// once, on the worker whose holding lists it. The speculation queue
	// is head-trimmed as tasks complete (they complete in roughly
	// dispatch order) and compacted, so it stays proportional to the
	// in-flight window, not the task count.
	attempts := map[Task]int{}    // next attempt number, absent = 0
	retries := map[Task]int{}     // failed attempts per task
	live := map[Task]int{}        // in-flight copies per speculated task
	speculated := map[Task]bool{} // tasks with a speculative twin
	requeued := map[Task]bool{}   // with Speculate: lost, awaiting their retry dispatch
	var specQ []Task              // primary dispatches in order, for straggler picks
	specHead := 0

	dispatch := func(w, run int, t Task, m DispatchMeta) {
		m.Attempt = attempts[t]
		if p.opts.TraceDispatch != nil {
			p.opts.TraceDispatch(t, m)
		}
		b.Dispatch(w, t, m)
		held[w].add(t, run)
		inflight++
		if p.opts.Speculate {
			if speculated[t] {
				live[t]++
			}
			if len(requeued) > 0 {
				delete(requeued, t)
			}
		}
	}
	// handOff dispatches t to worker w as the first task of a new run,
	// then the ready tasks that follow it while the run's predicted cost
	// fits the quantum.
	handOff := func(w int, t Task, m DispatchMeta) {
		h := &held[w]
		run := h.open(t, sweep)
		total := cost[p.slot(t)]
		for {
			dispatch(w, run, t, m)
			if p.opts.Speculate {
				specQ = append(specQ, t)
			}
			if total == 0 {
				break
			}
			next, ok := p.peek(w)
			if !ok || next.Step != t.Step || next.Phase != t.Phase {
				break
			}
			c := cost[p.slot(next)]
			if c == 0 || total+c > handoffQuantum {
				break
			}
			t, m, _ = p.Next(w)
			st.Coalesced++
			total += c
		}
		h.cost[run] = total
	}
	// prime lists w as a candidate for a second run if it holds exactly
	// one run of known cost within the quantum.
	prime := func(w int) {
		if _, ok := held[w].lone(); ok && !listed[w] {
			listed[w] = true
			primed = append(primed, w)
		}
	}
	// pipeline hands each listed worker that still qualifies a second
	// run, when the queue head continues its run's step and phase as a
	// first attempt of known cost within the quantum.
	pipeline := func() {
		kept := primed[:0]
		for _, w := range primed {
			h := &held[w]
			run, ok := h.lone()
			if !ok {
				listed[w] = false // idle, evicted or holding two runs since
				continue
			}
			if h.handed == sweep {
				kept = append(kept, w) // one run per worker per sweep
				continue
			}
			head, ok := p.peek(w)
			if ok && head.Step == h.first[run].Step && head.Phase == h.first[run].Phase && attempts[head] == 0 {
				if c := cost[p.slot(head)]; c > 0 && c <= handoffQuantum {
					t, m, _ := p.Next(w)
					handOff(w, t, m)
					st.Pipelined++
					listed[w] = false
					continue
				}
			}
			kept = append(kept, w)
		}
		primed = kept
	}
	// settle retires one finished copy of t from the in-flight counts.
	settle := func(t Task) {
		inflight--
		if len(live) > 0 && live[t] > 0 {
			live[t]--
			if live[t] == 0 {
				delete(live, t)
			}
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
		if p.opts.Speculate {
			requeued[t] = true
		}
		p.Requeue(t)
		return nil
	}
	// trimSpecQ drops completed/stale entries from the queue head and
	// reclaims the consumed prefix once it dominates the backing array.
	// A primary without a twin is in flight unless it completed or was
	// lost and awaits its retry.
	trimSpecQ := func() {
		for specHead < len(specQ) {
			t := specQ[specHead]
			if !p.Completed(t) && !speculated[t] && !requeued[t] {
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
		sweep++
		for g := range idle {
			for len(idle[g]) > 0 {
				w := idle[g][len(idle[g])-1]
				t, m, ok := p.Next(w)
				if !ok {
					break
				}
				idle[g] = idle[g][:len(idle[g])-1]
				handOff(w, t, m)
				prime(w)
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
					live[t] = 1 // the primary, still in flight
					attempts[t]++
					st.Speculated++
					dispatch(w, held[w].open(t, sweep), t, DispatchMeta{Group: p.GroupOf(w), Speculative: true})
				}
			}
		}
		if len(primed) > 0 {
			pipeline()
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
		h := &held[c.Worker]
		run, ok := h.retire(c.Task)
		if !ok {
			return st, fmt.Errorf("coord: completion of task %v, which is not in flight on worker %d", c.Task, c.Worker)
		}
		settle(c.Task)
		var stranded []heldTask
		switch {
		case c.WorkerDown:
			st.Evicted++
			alive--
			evicted[c.Worker] = true
			stranded = h.drain()
			for _, s := range stranded {
				settle(s.Task)
			}
		case h.empty():
			g := p.GroupOf(c.Worker)
			idle[g] = append(idle[g], c.Worker)
		case h.left[run] == 0:
			prime(c.Worker) // a run completed and the other is still held
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
		for _, s := range stranded {
			if err := lose(s.Task, fmt.Errorf("coord: worker %d evicted with the attempt in flight", c.Worker)); err != nil {
				return st, err
			}
		}
		if p.opts.Speculate {
			trimSpecQ()
		}
	}
	return st, nil
}

// holding lists what one worker has in flight: at most two runs, and
// their tasks from head on in hand-off order, each tagged with its
// run's slot (0 or 1). Completions mostly arrive in that order, so
// retiring one is a short search from the head.
type holding struct {
	tasks  []heldTask
	head   int
	left   [2]int     // tasks still in flight per run slot
	first  [2]Task    // each run's first task: its step and phase
	cost   [2]float64 // each run's predicted cost, 0 if unknown
	handed int        // the sweep that handed the newest run
}

type heldTask struct {
	Task
	run int8
}

// open starts a run at t in a free slot during sweep and returns the
// slot; the caller adds the run's tasks.
func (h *holding) open(t Task, sweep int) int {
	run := 0
	if h.left[0] > 0 {
		run = 1
	}
	if h.head > 0 {
		// Keep the list to the tasks still held, so a worker that always
		// has a run in flight does not grow it without bound.
		n := copy(h.tasks, h.tasks[h.head:])
		h.tasks, h.head = h.tasks[:n], 0
	}
	h.first[run], h.cost[run], h.handed = t, 0, sweep
	return run
}

func (h *holding) add(t Task, run int) {
	h.tasks = append(h.tasks, heldTask{Task: t, run: int8(run)})
	h.left[run]++
}

func (h *holding) empty() bool { return h.head == len(h.tasks) }

// lone returns the slot of the one run h holds, and whether h holds
// exactly one run and that run's cost is known and within the quantum.
func (h *holding) lone() (int, bool) {
	run := 0
	if h.left[1] > 0 {
		run = 1
	}
	c := h.cost[run]
	return run, h.left[run] > 0 && h.left[1-run] == 0 && c > 0 && c <= handoffQuantum
}

// retire removes t and returns its run's slot, and whether t was held.
func (h *holding) retire(t Task) (int, bool) {
	for i := h.head; i < len(h.tasks); i++ {
		if h.tasks[i].Task == t {
			run := int(h.tasks[i].run)
			h.tasks[i] = h.tasks[h.head]
			h.head++
			h.left[run]--
			if h.empty() {
				h.tasks, h.head = h.tasks[:0], 0
			}
			return run, true
		}
	}
	return 0, false
}

// drain removes and returns every task still held.
func (h *holding) drain() []heldTask {
	rest := h.tasks[h.head:]
	h.tasks, h.head, h.left = nil, 0, [2]int{}
	return rest
}
