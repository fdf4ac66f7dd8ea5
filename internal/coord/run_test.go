package coord

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// scriptedBackend completes attempts in dispatch order, failing the
// attempts a script marks, and records every dispatch.
type scriptedBackend struct {
	workers    int
	fail       func(t Task, attempt int) (fail, down bool)
	dispatches []Task
	byWorker   map[int]int
	pending    []Completion
}

func (b *scriptedBackend) Workers() int { return b.workers }
func (b *scriptedBackend) Dispatch(w int, t Task, m DispatchMeta) {
	b.dispatches = append(b.dispatches, t)
	if b.byWorker == nil {
		b.byWorker = map[int]int{}
	}
	b.byWorker[w]++
	c := Completion{Worker: w, Task: t}
	if b.fail != nil {
		if fail, down := b.fail(t, m.Attempt); fail {
			c.Err = errors.New("scripted failure")
			c.WorkerDown = down
		}
	}
	b.pending = append(b.pending, c)
}
func (b *scriptedBackend) Await(context.Context) (Completion, error) {
	c := b.pending[0]
	b.pending = b.pending[1:]
	return c, nil
}

// A failed attempt within the retry budget is re-queued and the run
// still completes every task exactly once.
func TestRunRetriesFailedAttempts(t *testing.T) {
	g := chainGraph(t, 5, true)
	p, err := NewPolicy(g, Options{Steps: 2, Workers: 2, Schedule: Schedule{MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Every task's first attempt fails; retries succeed.
	b := &scriptedBackend{workers: 2, fail: func(_ Task, attempt int) (bool, bool) {
		return attempt == 0, false
	}}
	st, err := RunContext(context.Background(), p, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := g.NPoly() * 2
	if st.Retries != want {
		t.Errorf("Retries = %d, want %d (every task failed once)", st.Retries, want)
	}
	if !p.Done() {
		t.Error("policy not done after retried run")
	}
	if len(b.dispatches) != 2*want {
		t.Errorf("dispatched %d attempts, want %d", len(b.dispatches), 2*want)
	}
}

// Exhausting the retry budget aborts the run with the task named.
func TestRunRetryBudgetExhausted(t *testing.T) {
	g := chainGraph(t, 3, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 1, Schedule: Schedule{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := &scriptedBackend{workers: 1, fail: func(tk Task, _ int) (bool, bool) {
		return tk.Poly == 1, false // polymer 1 always fails
	}}
	_, err = RunContext(context.Background(), p, b, nil)
	if err == nil {
		t.Fatal("run succeeded despite an always-failing task")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("error %q does not name the retry budget", err)
	}
}

// A worker that dies is evicted — no further dispatches — and its
// in-flight task is reclaimed onto a survivor.
func TestRunEvictsDeadWorker(t *testing.T) {
	g := chainGraph(t, 6, false)
	p, err := NewPolicy(g, Options{Steps: 2, Workers: 3, Schedule: Schedule{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	died := false
	b := &scriptedBackend{workers: 3}
	b.fail = func(tk Task, _ int) (bool, bool) {
		if !died && tk.Poly == 2 {
			died = true
			return true, true // worker dies with polymer 2's first attempt
		}
		return false, false
	}
	st, err := RunContext(context.Background(), p, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", st.Evicted)
	}
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the reclaimed in-flight task)", st.Retries)
	}
	if !p.Done() {
		t.Error("policy not done after eviction")
	}
}

// handoffBackend reports a fixed cost for every attempt, so RunContext
// hands out multi-task runs from step 1 on, and delivers each sweep's
// dispatches as one run per worker, completed in order. The victim
// worker dies when starting its dieAt-th task: it reports that task and
// every task behind it in the run as lost, WorkerDown on the last — or,
// when silent, reports only the first loss and leaves RunContext to
// reclaim the rest. A dead worker reports nothing after its death: a
// run handed to it before the death is reported is reclaimed, and
// counts as lost.
type handoffBackend struct {
	t             *testing.T
	workers       int
	victim, dieAt int
	silent        bool
	cost          float64
	runs          [][]Task
	order         []int // workers with a run this sweep, in first-dispatch order
	started       []int
	queue         []Completion
	dead, evicted bool // the victim died; its death was reported
	lost, longest int
	completions   map[Task]int
}

func (b *handoffBackend) Workers() int { return b.workers }
func (b *handoffBackend) Dispatch(w int, tk Task, _ DispatchMeta) {
	if w == b.victim && b.evicted {
		b.t.Errorf("task %v dispatched to evicted worker %d", tk, w)
	}
	if len(b.runs[w]) == 0 {
		b.order = append(b.order, w)
	}
	b.runs[w] = append(b.runs[w], tk)
}
func (b *handoffBackend) Await(context.Context) (Completion, error) {
	for _, w := range b.order {
		run := b.runs[w]
		b.runs[w] = nil
		b.longest = max(b.longest, len(run))
		for _, tk := range run {
			if tk.Step != run[0].Step || tk.Phase != run[0].Phase {
				b.t.Errorf("hand-off mixes %v with %v", run[0], tk)
			}
		}
		if w == b.victim && b.dead {
			b.lost += len(run) // never reported: RunContext reclaims it
			continue
		}
		for i, tk := range run {
			if w == b.victim && b.started[w] == b.dieAt {
				b.dead = true
				b.lost += len(run) - i
				death := errors.New("worker died")
				if b.silent {
					b.queue = append(b.queue, Completion{Worker: w, Task: tk, Err: death, WorkerDown: true})
					break
				}
				for _, l := range run[i:] {
					b.queue = append(b.queue, Completion{Worker: w, Task: l, Err: death})
				}
				b.queue[len(b.queue)-1].WorkerDown = true
				break
			}
			b.started[w]++
			b.completions[tk]++
			b.queue = append(b.queue, Completion{Worker: w, Task: tk, Seconds: b.cost})
		}
	}
	b.order = b.order[:0]
	c := b.queue[0]
	b.queue = b.queue[1:]
	b.evicted = b.evicted || c.WorkerDown
	return c, nil
}

// A worker that dies inside a multi-task hand-off is evicted once, every
// task it still held is re-queued on the survivor — whether it reported
// them or not — and every task completes exactly once. Hand-offs never
// mix steps or phases and never exceed the cost quantum.
func TestRunEvictsWorkerMidHandoff(t *testing.T) {
	const cost = 10e-6 // 20 tasks per 200 µs hand-off
	for _, silent := range []bool{false, true} {
		g := chainGraph(t, 40, true) // 79 polymers per step
		const steps = 3
		p, err := NewPolicy(g, Options{Steps: steps, Workers: 2, Schedule: Schedule{MaxRetries: 1}})
		if err != nil {
			t.Fatal(err)
		}
		// Step 0 dispatches single tasks (no cost known yet), about 40 per
		// worker; the victim's 50th start falls inside a step-1 run.
		b := &handoffBackend{t: t, workers: 2, victim: 1, dieAt: 50, silent: silent, cost: cost,
			runs: make([][]Task, 2), started: make([]int, 2), completions: map[Task]int{}}
		st, err := RunContext(context.Background(), p, b, nil)
		if err != nil {
			t.Fatalf("silent=%t: %v", silent, err)
		}
		if !b.dead || b.lost < 2 {
			t.Fatalf("silent=%t: death lost %d tasks — the test needs it inside a run with tasks behind it", silent, b.lost)
		}
		if st.Evicted != 1 {
			t.Errorf("silent=%t: Evicted = %d, want 1", silent, st.Evicted)
		}
		if st.Retries != b.lost {
			t.Errorf("silent=%t: Retries = %d, want the %d tasks lost with the worker", silent, st.Retries, b.lost)
		}
		if st.Coalesced == 0 || b.longest < 2 {
			t.Errorf("silent=%t: no multi-task hand-off (Coalesced %d, longest %d)", silent, st.Coalesced, b.longest)
		}
		if quantum := handoffQuantum; float64(b.longest)*cost > quantum*(1+1e-9) {
			t.Errorf("silent=%t: a hand-off of %d tasks exceeds the %g s quantum at %g s each", silent, b.longest, quantum, cost)
		}
		if !p.Done() {
			t.Errorf("silent=%t: policy not done", silent)
		}
		t.Logf("silent=%t: %d tasks lost with the worker, longest hand-off %d", silent, b.lost, b.longest)
		if len(b.completions) != steps*g.NPoly() {
			t.Errorf("silent=%t: %d tasks completed, want %d", silent, len(b.completions), steps*g.NPoly())
		}
		for tk, n := range b.completions {
			if n != 1 {
				t.Errorf("silent=%t: task %v completed %d times", silent, tk, n)
			}
		}
	}
}

// With one worker, cost-sized hand-offs pop the queue in exactly the
// order single-task dispatch does — on random graphs, flat and batched,
// async and sync, with and without charge phases. A hand-off must not
// pull a multi-task refill ahead of the completions that precede it
// under single-task dispatch; this is the test that catches it.
func TestHandoffsKeepSingleTaskOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(10)
		var members [][]int32
		var dist []float64
		for i := 0; i < n; i++ {
			members = append(members, []int32{int32(i)})
			dist = append(dist, float64(rng.Intn(5)))
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.3 {
					members = append(members, []int32{int32(j), int32(i)})
					dist = append(dist, float64(rng.Intn(5)))
				}
			}
		}
		opts := Options{Steps: 4, Workers: 1, Schedule: Schedule{Batch: 1 + rng.Intn(6)}, Sync: rng.Intn(3) == 0,
			ChargeRounds: rng.Intn(3)}
		dispatches := func(cost float64) ([]Task, int) {
			g, err := NewGraph(n, members, members, dist)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPolicy(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			b := &handoffBackend{t: t, workers: 1, victim: -1, cost: cost,
				runs: make([][]Task, 1), started: make([]int, 1), completions: map[Task]int{}}
			var order []Task
			rec := &BackendFuncs{NumWorkers: 1, AwaitFn: b.Await,
				DispatchFn: func(w int, tk Task, m DispatchMeta) {
					order = append(order, tk)
					b.Dispatch(w, tk, m)
				}}
			st, err := RunContext(context.Background(), p, rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			return order, st.Coalesced
		}
		single, _ := dispatches(0)
		runs, coalesced := dispatches(10e-6)
		if coalesced == 0 {
			t.Fatalf("trial %d %+v: no multi-task hand-off", trial, opts)
		}
		for i := range single {
			if single[i] != runs[i] {
				t.Fatalf("trial %d %+v: dispatch %d is %v with hand-offs, %v one at a time",
					trial, opts, i, runs[i], single[i])
			}
		}
	}
}

// When every worker dies the run aborts instead of wedging.
func TestRunAllWorkersEvicted(t *testing.T) {
	g := chainGraph(t, 4, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 2, Schedule: Schedule{MaxRetries: 100}})
	if err != nil {
		t.Fatal(err)
	}
	b := &scriptedBackend{workers: 2, fail: func(Task, int) (bool, bool) { return true, true }}
	_, err = RunContext(context.Background(), p, b, nil)
	if err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("got %v, want an every-worker-evicted error", err)
	}
}

// slowBackend finishes one designated straggler task only after the
// context dies; everything else completes instantly. With Speculate the
// straggler's duplicate copy completes and the run finishes.
type slowBackend struct {
	workers  int
	straggle Task
	pending  []Completion
	held     int // attempts of the straggler swallowed (never complete)
}

func (b *slowBackend) Workers() int { return b.workers }
func (b *slowBackend) Dispatch(w int, t Task, m DispatchMeta) {
	if t == b.straggle && !m.Speculative {
		b.held++ // primary copy hangs forever
		return
	}
	b.pending = append(b.pending, Completion{Worker: w, Task: t})
}
func (b *slowBackend) Await(ctx context.Context) (Completion, error) {
	if len(b.pending) == 0 {
		<-ctx.Done()
		return Completion{}, ctx.Err()
	}
	c := b.pending[0]
	b.pending = b.pending[1:]
	return c, nil
}

func TestRunSpeculatesAgainstStraggler(t *testing.T) {
	g := chainGraph(t, 6, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 2, Schedule: Schedule{Speculate: true}})
	if err != nil {
		t.Fatal(err)
	}
	b := &slowBackend{workers: 2, straggle: Task{Poly: 3, Step: 0}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := RunContext(ctx, p, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Speculated == 0 {
		t.Error("no speculative copies dispatched against the straggler")
	}
	if b.held != 1 {
		t.Errorf("straggler primary dispatched %d times, want 1", b.held)
	}
	if !p.Done() {
		t.Error("policy not done: speculation failed to cover the straggler")
	}
}

// Late completions of a task that a speculative copy already finished
// are dropped, not double-completed: monomer X's step-0 primary attempt
// straggles until after its speculative copy has completed and step 1
// is already in flight, then lands as a duplicate.
func TestRunDropsDuplicateCompletions(t *testing.T) {
	g := chainGraph(t, 2, false) // monomers X=0, Y=1
	p, err := NewPolicy(g, Options{Steps: 2, Workers: 2, Schedule: Schedule{Speculate: true}})
	if err != nil {
		t.Fatal(err)
	}
	x0 := Task{Poly: 0, Step: 0}
	var pending []Completion
	held := false
	b := &BackendFuncs{NumWorkers: 2}
	b.DispatchFn = func(w int, tk Task, m DispatchMeta) {
		c := Completion{Worker: w, Task: tk}
		if tk == x0 && !m.Speculative {
			held = true // the straggling primary: hold its completion
			return
		}
		pending = append(pending, c)
		if tk == x0 && m.Speculative && held {
			// The held primary limps in right after the speculative
			// copy completes.
			pending = append(pending, Completion{Worker: 0, Task: x0})
			held = false
		}
	}
	b.AwaitFn = func(context.Context) (Completion, error) {
		c := pending[0]
		pending = pending[1:]
		return c, nil
	}
	st, err := RunContext(context.Background(), p, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates == 0 {
		t.Error("the straggling primary's late completion was not counted as a duplicate")
	}
	if st.Speculated == 0 {
		t.Error("no speculative copies dispatched")
	}
	if !p.Done() {
		t.Error("policy not done")
	}
}

// A failed speculative copy must not burn the retry budget or abort
// the run while the task's healthy primary copy is still running —
// speculation is an optimisation, never a new way to fail.
func TestRunSpeculativeFailureDoesNotBurnBudget(t *testing.T) {
	g := chainGraph(t, 2, false) // monomers X=0, Y=1
	p, err := NewPolicy(g, Options{Steps: 2, Workers: 2, Schedule: Schedule{Speculate: true, MaxRetries: 0}})
	if err != nil {
		t.Fatal(err)
	}
	x0 := Task{Poly: 0, Step: 0}
	var pending []Completion
	held := false
	b := &BackendFuncs{NumWorkers: 2}
	b.DispatchFn = func(w int, tk Task, m DispatchMeta) {
		c := Completion{Worker: w, Task: tk}
		if tk == x0 && !m.Speculative {
			held = true // straggling primary: completion deferred
			return
		}
		if tk == x0 && m.Speculative {
			c.Err = errors.New("speculative copy failed")
		}
		pending = append(pending, c)
		if tk == x0 && m.Speculative && held {
			// The healthy primary limps in right after its copy fails.
			pending = append(pending, Completion{Worker: 0, Task: x0})
			held = false
		}
	}
	b.AwaitFn = func(context.Context) (Completion, error) {
		c := pending[0]
		pending = pending[1:]
		return c, nil
	}
	st, err := RunContext(context.Background(), p, b, nil)
	if err != nil {
		t.Fatalf("speculative copy's failure aborted a run whose primary succeeded: %v", err)
	}
	if st.Speculated == 0 {
		t.Error("no speculation happened — test is vacuous")
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (the primary delivered, nothing was re-queued)", st.Retries)
	}
	if !p.Done() {
		t.Error("policy not done")
	}
}

// The barrier-wedge fix: a backend that never completes a task no
// longer hangs Run forever — the context deadline aborts with a clear
// error naming the outstanding work.
func TestRunContextDeadlineUnwedges(t *testing.T) {
	g := chainGraph(t, 3, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := &BackendFuncs{
		NumWorkers: 1,
		DispatchFn: func(int, Task, DispatchMeta) {}, // swallow the task
		AwaitFn: func(ctx context.Context) (Completion, error) {
			<-ctx.Done() // a wedged backend at least honours ctx
			return Completion{}, ctx.Err()
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, p, b, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged run reported success")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("got %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext still wedged 5s after its deadline")
	}
}

// Requeue of an already-completed task is a no-op, and Completed
// reflects Complete.
func TestCompletedAndRequeue(t *testing.T) {
	g := chainGraph(t, 2, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, _, ok := p.Next(0)
	if !ok {
		t.Fatal("no task ready")
	}
	if p.Completed(tk) {
		t.Error("task completed before Complete")
	}
	p.Complete(tk, nil)
	if !p.Completed(tk) {
		t.Error("task not completed after Complete")
	}
	before := p.ready.Len()
	p.Requeue(tk)
	if p.ready.Len() != before {
		t.Error("Requeue re-queued a completed task")
	}
	remaining := p.remaining
	p.Complete(tk, nil) // double-complete must be a no-op
	if p.remaining != remaining {
		t.Error("double Complete decremented remaining twice")
	}
}

// Worker identity is a dense fixed handle: once a handle is evicted, a
// backend that lets a late joiner reuse the dead slot (or invents a
// handle outside the range) must be caught, not silently re-admitted to
// the idle pool.
func TestRunRejectsForgedWorkerIdentity(t *testing.T) {
	run := func(forge func(c Completion, evictedSeen bool) Completion) error {
		g := chainGraph(t, 4, false)
		p, err := NewPolicy(g, Options{Steps: 1, Workers: 2, Schedule: Schedule{MaxRetries: 3}})
		if err != nil {
			t.Fatal(err)
		}
		var queue []Completion
		evictedSeen := false
		b := &BackendFuncs{
			NumWorkers: 2,
			DispatchFn: func(w int, tk Task, m DispatchMeta) {
				c := Completion{Worker: w, Task: tk}
				if w == 0 && !evictedSeen {
					// First attempt on worker 0 kills it.
					c.Err = errors.New("injected death")
					c.WorkerDown = true
				} else {
					c = forge(c, evictedSeen)
				}
				queue = append(queue, c)
			},
			AwaitFn: func(context.Context) (Completion, error) {
				c := queue[0]
				queue = queue[1:]
				if c.WorkerDown {
					evictedSeen = true
				}
				return c, nil
			},
		}
		_, err = RunContext(context.Background(), p, b, nil)
		return err
	}

	err := run(func(c Completion, evictedSeen bool) Completion {
		if evictedSeen {
			c.Worker = 0 // a late joiner squatting on the dead slot
		}
		return c
	})
	if err == nil || !strings.Contains(err.Error(), "evicted worker") {
		t.Fatalf("completion reusing an evicted handle not rejected: %v", err)
	}

	err = run(func(c Completion, evictedSeen bool) Completion {
		c.Worker = 7 // outside the dense handle range
		return c
	})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("completion with out-of-range handle not rejected: %v", err)
	}
}
