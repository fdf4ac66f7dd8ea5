package coord

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// chainGraph builds n monomers on a line at unit spacing, each its own
// polymer, plus nearest-neighbour dimers; the reference is monomer 0
// (Dist = distance of the polymer's closest member to monomer 0).
func chainGraph(t *testing.T, n int, dimers bool) *Graph {
	t.Helper()
	var members, touch [][]int32
	var dist []float64
	for i := 0; i < n; i++ {
		members = append(members, []int32{int32(i)})
		touch = append(touch, []int32{int32(i)})
		dist = append(dist, float64(i))
	}
	if dimers {
		for i := 0; i+1 < n; i++ {
			members = append(members, []int32{int32(i), int32(i + 1)})
			touch = append(touch, []int32{int32(i), int32(i + 1)})
			dist = append(dist, float64(i))
		}
	}
	g, err := NewGraph(n, members, touch, dist)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drain runs the policy serially (one worker, immediate completion) and
// returns the dispatch order.
func drain(t *testing.T, p *Policy) []Task {
	t.Helper()
	var order []Task
	for !p.Done() {
		tk, _, ok := p.Next(0)
		if !ok {
			t.Fatalf("policy stuck with %d tasks outstanding", p.remaining)
		}
		order = append(order, tk)
		p.Complete(tk, nil)
	}
	return order
}

// The dispatch order is total and deterministic: step, then distance,
// then size descending, then the monomer tuple.
func TestPolicyOrderingDeterministic(t *testing.T) {
	g := chainGraph(t, 5, true)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	order := drain(t, p)
	if len(order) != g.NPoly() {
		t.Fatalf("dispatched %d tasks, want %d", len(order), g.NPoly())
	}
	// Dimer {0,1} (dist 0, size 2) precedes monomer {0} (dist 0, size
	// 1), which precedes everything at dist ≥ 1.
	want := [][]int32{{0, 1}, {0}, {1, 2}, {1}, {2, 3}, {2}, {3, 4}, {3}, {4}}
	for i, tk := range order {
		got := g.Members[tk.Poly]
		if len(got) != len(want[i]) {
			t.Fatalf("dispatch %d: polymer %v, want %v", i, got, want[i])
		}
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("dispatch %d: polymer %v, want %v", i, got, want[i])
			}
		}
	}
}

// Async mode releases a monomer's next step the moment every polymer
// touching it completes; sync mode holds it behind the global barrier.
func TestPerMonomerReleaseVsBarrier(t *testing.T) {
	find := func(g *Graph, want ...int32) int32 {
		for pi, ms := range g.Members {
			if len(ms) != len(want) {
				continue
			}
			match := true
			for k := range ms {
				if ms[k] != want[k] {
					match = false
				}
			}
			if match {
				return int32(pi)
			}
		}
		t.Fatalf("no polymer %v", want)
		return -1
	}
	for _, sync := range []bool{false, true} {
		g := chainGraph(t, 6, true)
		p, err := NewPolicy(g, Options{Steps: 2, Workers: 1, Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		// The first two dispatches are dimer {0,1} then monomer {0} —
		// the only polymers touching monomer 0. Completing both
		// advances monomer 0 to step 1.
		a, _, _ := p.Next(0)
		b, _, _ := p.Next(0)
		p.Complete(a, nil)
		p.Complete(b, nil)
		m0 := find(g, 0)
		switch {
		case !sync && p.nextStep[m0] != 2:
			t.Errorf("async: monomer 0's step-1 task not released (nextStep=%d, want 2)", p.nextStep[m0])
		case sync && p.nextStep[m0] != 1:
			t.Errorf("sync: monomer 0's step-1 task leaked through the barrier (nextStep=%d, want 1)", p.nextStep[m0])
		}
	}
	// A sync drain never goes back in step.
	g := chainGraph(t, 6, false)
	p, err := NewPolicy(g, Options{Steps: 3, Workers: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(0)
	for _, tk := range drain(t, p) {
		if tk.Step < prev {
			t.Fatalf("sync mode dispatched step %d after step %d", tk.Step, prev)
		}
		prev = tk.Step
	}
}

// Dependencies defer dispatch: with a dimer chain, monomer i's step-1
// task cannot launch until the dimers touching it complete step 0.
func TestDependencyRelease(t *testing.T) {
	g := chainGraph(t, 4, true)
	p, err := NewPolicy(g, Options{Steps: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := map[Task]bool{}
	for !p.Done() {
		tk, _, ok := p.Next(0)
		if !ok {
			t.Fatal("policy stuck")
		}
		if tk.Step == 1 {
			// Every polymer touching tk's touch-set monomers must have
			// completed step 0.
			for _, mi := range g.Touch[tk.Poly] {
				for _, pi := range g.Touching[mi] {
					if !done[Task{Poly: pi, Step: 0}] {
						t.Fatalf("task %+v dispatched before dependency polymer %d finished step 0", tk, pi)
					}
				}
			}
		}
		done[tk] = true
		p.Complete(tk, nil)
	}
}

// Batch refills amortise the super-coordinator: draining through one
// group with Batch=4 moves tasks in ≥4-task transfers while preserving
// the flat dispatch order.
func TestBatchRefillPreservesOrder(t *testing.T) {
	g := chainGraph(t, 8, true)
	flat, err := NewPolicy(g, Options{Steps: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewPolicy(g, Options{Steps: 2, Workers: 1, Schedule: Schedule{Batch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fo, bo := drain(t, flat), drain(t, batched)
	for i := range fo {
		if fo[i] != bo[i] {
			t.Fatalf("dispatch %d: batched %+v, flat %+v", i, bo[i], fo[i])
		}
	}
	if flat.Batches() != len(fo) {
		t.Errorf("flat made %d transfers for %d tasks", flat.Batches(), len(fo))
	}
	if batched.Batches() >= flat.Batches() {
		t.Errorf("batching made %d transfers, flat %d", batched.Batches(), flat.Batches())
	}
}

// Work stealing: when the super-coordinator is empty and one group
// holds a long queue, a starved group steals the lower-priority tail.
func TestWorkStealing(t *testing.T) {
	g := chainGraph(t, 8, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 2, Schedule: Schedule{Groups: 2, Batch: 100, Steal: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 (group 0) grabs everything in one batch.
	t0, m0, ok := p.Next(0)
	if !ok || m0.Refill != 8 {
		t.Fatalf("group 0 refill = %+v ok=%v, want 8-task batch", m0, ok)
	}
	if t0.Poly != 0 {
		t.Errorf("group 0 dispatched polymer %d first, want 0 (closest to reference)", t0.Poly)
	}
	// Worker 1 (group 1) finds the super empty and steals half of what
	// group 0 still holds (7 tasks → 4 stolen from the far tail).
	t1, m1, ok := p.Next(1)
	if !ok {
		t.Fatal("starved group failed to steal")
	}
	if m1.Stolen != 4 {
		t.Errorf("stole %d tasks, want 4", m1.Stolen)
	}
	if g.Dist[t1.Poly] <= g.Dist[t0.Poly] {
		t.Errorf("stolen head dist %.0f not beyond victim head dist %.0f (must take the tail)",
			g.Dist[t1.Poly], g.Dist[t0.Poly])
	}
	if p.Steals() != 1 {
		t.Errorf("Steals() = %d, want 1", p.Steals())
	}
	// No work lost or duplicated.
	seen := map[Task]bool{t0: true, t1: true}
	p.Complete(t0, nil)
	p.Complete(t1, nil)
	for !p.Done() {
		dispatched := false
		for w := 0; w < 2; w++ {
			tk, _, ok := p.Next(w)
			if !ok {
				continue
			}
			if seen[tk] {
				t.Fatalf("task %+v dispatched twice", tk)
			}
			seen[tk] = true
			p.Complete(tk, nil)
			dispatched = true
		}
		if !dispatched {
			t.Fatal("policy stuck")
		}
	}
	if len(seen) != 8 {
		t.Errorf("completed %d tasks, want 8", len(seen))
	}
}

// GroupOf partitions workers into contiguous, balanced blocks.
func TestGroupOf(t *testing.T) {
	g := chainGraph(t, 2, false)
	p, err := NewPolicy(g, Options{Steps: 1, Workers: 8, Schedule: Schedule{Groups: 3}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	prev := 0
	for w := 0; w < 8; w++ {
		gid := p.GroupOf(w)
		if gid < prev || gid >= 3 {
			t.Fatalf("worker %d → group %d (prev %d)", w, gid, prev)
		}
		prev = gid
		counts[gid]++
	}
	for gid, c := range counts {
		if c < 2 || c > 3 {
			t.Errorf("group %d has %d workers, want 2..3", gid, c)
		}
	}
	// Groups beyond Workers collapse.
	p2, err := NewPolicy(g, Options{Steps: 1, Workers: 2, Schedule: Schedule{Groups: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Groups() != 2 {
		t.Errorf("64 groups over 2 workers = %d effective groups, want 2", p2.Groups())
	}
}

// The counting rule on the small expansions whose coefficients are known
// by hand: three monomers under MBE3 and two under MBE2 leave only the
// full system, and a trimer whose dimer 0–2 lies outside the dimer
// cutoff gives that extra dimer −1 and keeps monomers 0 and 2.
func TestCoefficients(t *testing.T) {
	pairs := [][2]int32{{0, 1}, {0, 2}, {1, 2}}
	tri := [][3]int32{{0, 1, 2}}
	for _, tc := range []struct {
		name      string
		nMono     int
		dimers    [][2]int32
		term      int
		trimers   [][3]int32
		triDimers [][3]int32
		want      []float64
	}{
		{"mbe3-three", 3, pairs, 3, tri, [][3]int32{{3, 4, 5}}, []float64{0, 0, 0, 0, 0, 0, 1}},
		{"mbe2-two", 2, pairs[:1], 1, nil, nil, []float64{0, 0, 1}},
		{"extra-dimer", 3, [][2]int32{{0, 1}, {1, 2}, {0, 2}}, 2, tri, [][3]int32{{3, 5, 4}},
			[]float64{1, 0, 1, 0, 0, -1, 1}},
	} {
		got := Coefficients(tc.nMono, tc.dimers, tc.term, tc.trimers, tc.triDimers)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: coefficients %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	g := chainGraph(t, 2, false)
	if _, err := NewPolicy(g, Options{Steps: 0, Workers: 1}); err == nil {
		t.Error("expected zero-steps error")
	}
	if _, err := NewPolicy(g, Options{Steps: 1, Workers: 0}); err == nil {
		t.Error("expected zero-workers error")
	}
	if _, err := NewPolicy(g, Options{Steps: 1, Workers: 1, Schedule: Schedule{Groups: -1}}); err == nil {
		t.Error("expected negative-groups error")
	}
	if _, err := NewPolicy(g, Options{Steps: 1, Workers: 1, Schedule: Schedule{Batch: -1}}); err == nil {
		t.Error("expected negative-batch error")
	}
	if _, err := NewPolicy(g, Options{Steps: 1, Workers: 1, Schedule: Schedule{MaxRetries: -1}}); err == nil {
		t.Error("expected negative-retries error")
	}
	if _, err := NewGraph(2, [][]int32{{0}}, [][]int32{{0}, {1}}, []float64{0}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := NewGraph(1, [][]int32{{0}}, [][]int32{{3}}, []float64{0}); err == nil {
		t.Error("expected out-of-range touch error")
	}
	if _, err := NewGraph(1, [][]int32{{}}, [][]int32{{0}}, []float64{0}); err == nil {
		t.Error("expected empty-polymer error")
	}
	// Monomer 1 is in no touch set, so it could never advance and every
	// polymer containing it would wait forever.
	if _, err := NewGraph(3, [][]int32{{0}, {2}}, [][]int32{{0}, {2}}, []float64{0, 1}); err == nil ||
		!strings.Contains(err.Error(), "monomer 1 is touched by no polymer") {
		t.Errorf("expected untouched-monomer error, got %v", err)
	}
}

// Run over a trivial immediate-completion backend: every task completes
// exactly once and onAdvance fires once per (monomer, step).
func TestRunCompletesAllTasks(t *testing.T) {
	g := chainGraph(t, 6, true)
	const steps = 3
	p, err := NewPolicy(g, Options{Steps: steps, Workers: 3, Schedule: Schedule{Groups: 2, Batch: 2, Steal: true}})
	if err != nil {
		t.Fatal(err)
	}
	var pending []Completion
	completed := map[Task]int{}
	backend := &BackendFuncs{
		NumWorkers: 3,
		DispatchFn: func(w int, tk Task, _ DispatchMeta) {
			pending = append(pending, Completion{Worker: w, Task: tk})
		},
		AwaitFn: func(context.Context) (Completion, error) {
			c := pending[0]
			pending = pending[1:]
			completed[c.Task]++
			return c, nil
		},
	}
	advances := map[[2]int32]int{}
	if err := Run(p, backend, func(mono, step int32) { advances[[2]int32{mono, step}]++ }); err != nil {
		t.Fatal(err)
	}
	if len(completed) != g.NPoly()*steps {
		t.Fatalf("completed %d distinct tasks, want %d", len(completed), g.NPoly()*steps)
	}
	for tk, nTimes := range completed {
		if nTimes != 1 {
			t.Errorf("task %+v completed %d times", tk, nTimes)
		}
	}
	if len(advances) != g.NMono*steps {
		t.Fatalf("%d monomer advances, want %d", len(advances), g.NMono*steps)
	}
}

// Hierarchical knobs never change the work done, only its placement:
// the multiset of dispatched tasks is identical across configurations.
func TestConfigurationsDispatchSameWork(t *testing.T) {
	g := chainGraph(t, 7, true)
	gather := func(opts Options) map[Task]bool {
		p, err := NewPolicy(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Task]bool{}
		for !p.Done() {
			progressed := false
			for w := 0; w < opts.Workers; w++ {
				tk, _, ok := p.Next(w)
				if !ok {
					continue
				}
				seen[tk] = true
				p.Complete(tk, nil)
				progressed = true
			}
			if !progressed {
				t.Fatal("policy stuck")
			}
		}
		return seen
	}
	base := gather(Options{Steps: 2, Workers: 1})
	for _, opts := range []Options{
		{Steps: 2, Workers: 4, Schedule: Schedule{Groups: 2, Batch: 3, Steal: true}},
		{Steps: 2, Workers: 4, Schedule: Schedule{Groups: 4, Batch: 1, Steal: true}, Sync: true},
	} {
		got := gather(opts)
		if len(got) != len(base) {
			t.Fatalf("%+v dispatched %d tasks, flat %d", opts, len(got), len(base))
		}
		for tk := range base {
			if !got[tk] {
				t.Fatalf("%+v missed task %+v", opts, tk)
			}
		}
	}
}
