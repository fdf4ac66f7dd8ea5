package coord

import (
	"context"
	"errors"
	"testing"
)

// pipeBackend completes one task per Await, round-robin over the
// workers with work, each worker's runs in the order they were handed.
// So a worker is still inside one run when the next sweep may hand it a
// second. The dispatches of one sweep to one worker form one run.
// Every attempt costs cost seconds. The victim dies when starting its
// dieAt-th task (dieAt < 0: never). It reports that task lost, with
// WorkerDown, and when loud also every task behind it in that run, the
// last one carrying WorkerDown. Everything else it held, and any run
// handed to it before its death was reported, it never reports.
type pipeBackend struct {
	t             *testing.T
	workers       int
	victim, dieAt int
	silent        bool
	cost          float64

	runs    [][][]Task // per worker: runs held, oldest first
	fresh   []bool     // per worker: a run was opened this sweep
	reports []Completion
	turn    int
	starts  int // tasks the victim started

	dead, evicted bool
	lost          int // tasks the victim held at its death or was handed after it
	runsAtDeath   int
	maxRuns       int
	completions   map[Task]int
}

func newPipeBackend(t *testing.T, workers, victim, dieAt int, cost float64) *pipeBackend {
	return &pipeBackend{t: t, workers: workers, victim: victim, dieAt: dieAt, cost: cost,
		runs: make([][][]Task, workers), fresh: make([]bool, workers), completions: map[Task]int{}}
}

func (b *pipeBackend) Workers() int { return b.workers }

func (b *pipeBackend) Dispatch(w int, tk Task, _ DispatchMeta) {
	if w == b.victim && b.evicted {
		b.t.Errorf("task %v dispatched to evicted worker %d", tk, w)
	}
	if !b.fresh[w] {
		b.fresh[w] = true
		b.runs[w] = append(b.runs[w], nil)
	}
	r := &b.runs[w][len(b.runs[w])-1]
	*r = append(*r, tk)
}

func (b *pipeBackend) Await(context.Context) (Completion, error) {
	for w := range b.fresh {
		b.fresh[w] = false
		b.maxRuns = max(b.maxRuns, len(b.runs[w]))
	}
	if b.dead {
		// Runs handed to the dead victim are never reported.
		for _, r := range b.runs[b.victim] {
			b.lost += len(r)
		}
		b.runs[b.victim] = nil
	}
	if len(b.reports) > 0 {
		return b.pop(b.reports[0]), nil
	}
	for i := 0; i < b.workers; i++ {
		w := (b.turn + i) % b.workers
		if len(b.runs[w]) == 0 {
			continue
		}
		b.turn = w + 1
		run := b.runs[w][0]
		tk := run[0]
		if w == b.victim {
			if b.starts == b.dieAt {
				return b.die(), nil
			}
			b.starts++
		}
		if len(run) == 1 {
			b.runs[w] = b.runs[w][1:]
		} else {
			b.runs[w][0] = run[1:]
		}
		b.completions[tk]++
		return Completion{Worker: w, Task: tk, Seconds: b.cost}, nil
	}
	b.t.Fatal("Await with nothing in flight")
	return Completion{}, nil
}

// die kills the victim as it starts the head of its oldest run.
func (b *pipeBackend) die() Completion {
	w := b.victim
	b.dead = true
	b.runsAtDeath = len(b.runs[w])
	for _, r := range b.runs[w] {
		b.lost += len(r)
	}
	death := errors.New("worker died")
	report := b.runs[w][0]
	if b.silent {
		report = report[:1]
	}
	for _, tk := range report {
		b.reports = append(b.reports, Completion{Worker: w, Task: tk, Err: death})
	}
	b.reports[len(b.reports)-1].WorkerDown = true
	b.runs[w] = nil
	return b.pop(b.reports[0])
}

func (b *pipeBackend) pop(c Completion) Completion {
	b.reports = b.reports[1:]
	b.evicted = b.evicted || c.WorkerDown
	return c
}

// A second run goes only to a worker whose run and next task both have
// a known cost within the quantum: a backend that reports no cost (the
// simulator, netcoord) and tasks dearer than the quantum (sto-3g RI-MP2)
// keep one run per worker, while microsecond tasks get a second.
func TestSecondRunOnlyWhenItCanPay(t *testing.T) {
	for _, tc := range []struct {
		cost     float64
		maxRuns  int
		pipeline bool
	}{
		{0, 1, false},
		{2 * handoffQuantum, 1, false},
		{10e-6, 2, true},
	} {
		g := chainGraph(t, 40, true)
		p, err := NewPolicy(g, Options{Steps: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		b := newPipeBackend(t, 2, -1, -1, tc.cost)
		st, err := RunContext(context.Background(), p, b, nil)
		if err != nil {
			t.Fatalf("cost %g: %v", tc.cost, err)
		}
		if b.maxRuns != tc.maxRuns {
			t.Errorf("cost %g: a worker held up to %d runs at once, want %d", tc.cost, b.maxRuns, tc.maxRuns)
		}
		if (st.Pipelined > 0) != tc.pipeline {
			t.Errorf("cost %g: Pipelined = %d, want > 0: %t", tc.cost, st.Pipelined, tc.pipeline)
		}
		if !p.Done() || len(b.completions) != 4*g.NPoly() {
			t.Errorf("cost %g: %d of %d tasks completed", tc.cost, len(b.completions), 4*g.NPoly())
		}
	}
}

// A worker that dies inside its first run while it holds a second is
// evicted once; everything it held — the tasks it reported lost, the
// rest of its run and the whole second run, which it never reports — is
// re-queued, so Retries equals the tasks it held at death and every task
// completes exactly once.
func TestRunEvictsWorkerHoldingTwoRuns(t *testing.T) {
	const cost, steps = 10e-6, 3
	twoRuns := 0
	for _, silent := range []bool{false, true} {
		// Step 0 dispatches single tasks, about 40 per worker, so these
		// starts fall in the cost-sized runs of steps 1 and 2.
		for _, dieAt := range []int{45, 57, 63, 71, 88} {
			g := chainGraph(t, 40, true) // 79 polymers per step
			p, err := NewPolicy(g, Options{Steps: steps, Workers: 2, Schedule: Schedule{MaxRetries: 1}})
			if err != nil {
				t.Fatal(err)
			}
			b := newPipeBackend(t, 2, 1, dieAt, cost)
			b.silent = silent
			st, err := RunContext(context.Background(), p, b, nil)
			if err != nil {
				t.Fatalf("silent=%t dieAt=%d: %v", silent, dieAt, err)
			}
			if !b.dead {
				t.Fatalf("silent=%t dieAt=%d: the victim never died", silent, dieAt)
			}
			if st.Evicted != 1 {
				t.Errorf("silent=%t dieAt=%d: Evicted = %d, want 1", silent, dieAt, st.Evicted)
			}
			if st.Retries != b.lost {
				t.Errorf("silent=%t dieAt=%d: Retries = %d, want the %d tasks the worker held", silent, dieAt, st.Retries, b.lost)
			}
			if !p.Done() || len(b.completions) != steps*g.NPoly() {
				t.Errorf("silent=%t dieAt=%d: %d of %d tasks completed", silent, dieAt, len(b.completions), steps*g.NPoly())
			}
			for tk, n := range b.completions {
				if n != 1 {
					t.Errorf("silent=%t dieAt=%d: task %v completed %d times", silent, dieAt, tk, n)
				}
			}
			if b.runsAtDeath == 2 {
				twoRuns++
			}
			t.Logf("silent=%t dieAt=%d: held %d runs, %d tasks lost, %d second runs", silent, dieAt, b.runsAtDeath, b.lost, st.Pipelined)
		}
	}
	if twoRuns == 0 {
		t.Error("no death found the victim holding two runs — the test would not cover a reclaimed second run")
	}
}
