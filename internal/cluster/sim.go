package cluster

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/resilience"
)

// Options configures one simulation run.
type Options struct {
	// Nodes actually used (≤ Machine.Nodes).
	Nodes int
	// Steps is the number of AIMD time steps.
	Steps int
	// Async enables the per-monomer asynchronous time-step scheme;
	// false inserts a global barrier between steps.
	Async bool

	// Schedule holds the scheduling-policy knobs — hierarchy, retry
	// budget (required > 0 when MTBF or an Injector can fail attempts),
	// straggler copies, dispatch trace — shared with the live engine
	// (DESIGN.md §6).
	coord.Schedule

	// ChargeRounds simulates the EE-MBE two-phase pipeline (DESIGN.md
	// §8): each step runs this many barriered rounds of per-monomer
	// charge tasks (costed as one monomer-sized SCF each) before its
	// polymer evaluations. 0 = vacuum MBE. Mirrors
	// sched.Options.Embed, so the two backends stay dispatch-identical.
	ChargeRounds int

	// Jitter adds uniform ±Jitter relative noise to every task's
	// modelled execution time (0 ≤ Jitter < 1; 0 = the deterministic
	// cost model). Non-zero jitter creates the load imbalance that
	// exercises dynamic balancing and work stealing.
	Jitter float64
	// Seed seeds the jitter and failure RNGs so runs are reproducible
	// run-to-run; 0 selects the default seed 1.
	Seed int64

	// MTBF is the per-worker mean time between failures in simulated
	// seconds (exponentially distributed, drawn from Seed); 0 disables
	// node failures. A failure kills the attempt in flight: the
	// coordinator re-queues it on a surviving worker and the failed
	// worker rejoins after Machine.RestartSeconds — or never, with
	// FailPermanent.
	MTBF float64
	// FailPermanent makes every failure a node loss for the rest of the
	// run: the worker is evicted instead of restarting.
	FailPermanent bool
	// Injector, when non-nil, adds seeded deterministic task failures
	// and stragglers on top of (or instead of) the MTBF process — the
	// chaos-test hook shared with the live engine.
	Injector *resilience.FailureInjector
}

// Result reports a simulated run.
type Result struct {
	Machine      string
	Nodes        int
	Workers      int
	Steps        int
	Makespan     float64   // seconds, whole run
	StepSeconds  []float64 // per-step span (first dispatch → last completion; spans overlap under async)
	AvgStep      float64   // effective time-step latency = Makespan/Steps (the paper's throughput measure)
	TotalFLOPs   float64
	PFLOPS       float64 // sustained TotalFLOPs / Makespan
	PeakFraction float64 // PFLOPS / machine sustained peak at this node count
	NPolymers    int     // tasks per step: the polymers with a non-zero MBE coefficient (Workload.Tasks)

	// Coordination diagnostics of the hierarchical scheduler.
	CoordBusy  float64 // seconds the serialised super-coordinator was occupied
	CoordUtil  float64 // CoordBusy / Makespan
	Batches    int     // super→group batch transfers
	Steals     int     // inter-group work steals
	Throughput float64 // completed tasks per second of makespan

	// Resilience diagnostics (Options.MTBF / Injector; DESIGN.md §7).
	Recoveries      int     // failed attempts recovered by re-queueing
	LostWork        float64 // seconds of computation thrown away by failures
	RestartOverhead float64 // seconds of worker downtime spent restarting
	Evicted         int     // workers lost for good (FailPermanent)
	Speculated      int     // straggler copies dispatched
}

// errNodeFailure marks an attempt lost to a simulated MTBF node
// failure.
var errNodeFailure = errors.New("cluster: simulated node failure")

// doneEvent is a completion in the running set.
type doneEvent struct {
	t      float64
	dur    float64 // modelled execution seconds of the attempt
	task   coord.Task
	worker int
	err    error // non-nil: the attempt was lost to a failure
	down   bool  // the worker is gone for good
}

type eventHeap []doneEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(doneEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Simulate runs the discrete-event simulation of w on nodes of m,
// driving the shared internal/coord scheduling policy through a
// simulated-clock backend.
//
// Cost model: with a flat scheduler every dispatch serialises on the
// super-coordinator for CoordService and pays DispatchLatency to reach
// its worker. Under the hierarchy the super-coordinator is charged once
// per *batch* (amortising its serialised service across Batch tasks),
// the batch lands at its group coordinator after DispatchLatency, and
// each task then pays the group's own GroupService/GroupLatency — group
// coordinators serialise independently, in parallel.
func Simulate(w *Workload, m Machine, opt Options) (*Result, error) {
	if opt.Nodes <= 0 || opt.Nodes > m.Nodes {
		return nil, fmt.Errorf("cluster: node count %d outside 1..%d", opt.Nodes, m.Nodes)
	}
	if opt.Steps <= 0 {
		return nil, errors.New("cluster: need at least one step")
	}
	if opt.Jitter < 0 || opt.Jitter >= 1 {
		return nil, fmt.Errorf("cluster: jitter %g outside 0..1", opt.Jitter)
	}
	if opt.MTBF < 0 {
		return nil, fmt.Errorf("cluster: MTBF %g must not be negative", opt.MTBF)
	}
	if opt.MTBF > 0 && opt.MaxRetries <= 0 {
		return nil, errors.New("cluster: MTBF failures need a positive MaxRetries budget")
	}
	nWorkers := opt.Nodes * m.GCDsPerNode
	nPoly := len(w.Tasks())

	pol, err := coord.NewPolicy(w.Graph(), coord.Options{
		Schedule: opt.Schedule, Steps: opt.Steps, Workers: nWorkers, Sync: !opt.Async,
		ChargeRounds: opt.ChargeRounds,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	hier := pol.Groups() > 1 || pol.Batch() > 1

	// Per-polymer cost (static workload: same every step).
	secs := make([]float64, nPoly)
	flops := make([]float64, nPoly)
	for pi, p := range w.Tasks() {
		nbf, nocc, naux := w.Size(p)
		secs[pi], flops[pi] = m.Seconds(nbf, nocc, naux)
	}
	// Per-monomer charge-task cost: one monomer-sized SCF (the phase-1
	// Mulliken derivation of EE-MBE).
	var chargeSecs, chargeFlops []float64
	if opt.ChargeRounds > 0 {
		chargeSecs = make([]float64, len(w.Monomers))
		chargeFlops = make([]float64, len(w.Monomers))
		for mi, ms := range w.Monomers {
			chargeSecs[mi], chargeFlops[mi] = m.Seconds(ms.NBf, ms.NOcc, ms.NAux)
		}
	}
	taskCost := func(t coord.Task) (float64, float64) {
		if int(t.Phase) < opt.ChargeRounds {
			return chargeSecs[t.Poly], chargeFlops[t.Poly]
		}
		return secs[t.Poly], flops[t.Poly]
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	running := &eventHeap{}
	heap.Init(running)
	var now, superFree, superBusy float64
	groupFree := make([]float64, pol.Groups())  // group coordinator serialised resource
	groupReady := make([]float64, pol.Groups()) // when the group's latest batch lands
	gsvc, glat := m.groupService(), m.groupLatency()
	firstStart := make([]float64, opt.Steps)
	lastDone := make([]float64, opt.Steps)
	for t := range firstStart {
		firstStart[t] = math.Inf(1)
	}
	var totalFlops float64
	completions := 0

	// Failure machinery: each worker's failure times follow a seeded
	// exponential process (separate RNG so toggling MTBF never perturbs
	// the jitter draws); a failed worker is unavailable until
	// availableAt[w].
	inj := opt.Injector
	var lostWork, restartOverhead float64
	availableAt := make([]float64, nWorkers)
	tasksDone := make([]int, nWorkers)
	var nextFail []float64
	var failRng *rand.Rand
	restart := m.restartSeconds()
	if opt.MTBF > 0 {
		failRng = rand.New(rand.NewSource(seed ^ 0x6a09e667f3bcc908))
		nextFail = make([]float64, nWorkers)
		for wk := range nextFail {
			nextFail[wk] = failRng.ExpFloat64() * opt.MTBF
		}
	}

	backend := &coord.BackendFuncs{
		NumWorkers: nWorkers,
		DispatchFn: func(wk int, t coord.Task, meta coord.DispatchMeta) {
			var begin float64
			if !hier {
				start := math.Max(now, superFree)
				superFree = start + m.CoordService
				superBusy += m.CoordService
				begin = start + m.DispatchLatency
			} else {
				g := meta.Group
				if meta.Refill > 0 {
					// One serialised super-coordinator assignment for the
					// whole batch; the batch reaches the group after the
					// dispatch round trip.
					start := math.Max(now, superFree)
					superFree = start + m.CoordService
					superBusy += m.CoordService
					if arr := start + m.DispatchLatency; arr > groupReady[g] {
						groupReady[g] = arr
					}
				}
				if meta.Stolen > 0 {
					// Peer-to-peer transfer: one inter-group round trip.
					if arr := now + m.DispatchLatency; arr > groupReady[g] {
						groupReady[g] = arr
					}
				}
				start := math.Max(now, math.Max(groupReady[g], groupFree[g]))
				groupFree[g] = start + gsvc
				begin = start + glat
			}
			begin = math.Max(begin, availableAt[wk]) // node still restarting
			dur, _ := taskCost(t)
			if opt.Jitter > 0 {
				dur *= 1 + opt.Jitter*(2*rng.Float64()-1)
			}
			dur *= inj.Straggle(wk, t.Poly, t.Step)
			if begin < firstStart[t.Step] {
				firstStart[t.Step] = begin
			}
			if inj.WorkerDies(wk, tasksDone[wk]) {
				// Injected node death: the attempt dies with the worker,
				// which never comes back.
				heap.Push(running, doneEvent{t: begin, task: t, worker: wk,
					err: resilience.ErrWorkerDeath, down: true})
				return
			}
			if nextFail != nil && nextFail[wk] < begin+dur {
				// An MTBF failure strikes before the attempt completes
				// (possibly while the node sat idle — the dispatch then
				// fails on arrival). The work done so far is lost; the
				// node restarts, or is gone with FailPermanent. The
				// next failure is drawn from the moment the node is
				// back up — downtime accrues no failures.
				failAt := math.Max(begin, nextFail[wk])
				nextFail[wk] = failAt + restart + failRng.ExpFloat64()*opt.MTBF
				lostWork += failAt - begin
				if !opt.FailPermanent {
					availableAt[wk] = failAt + restart
					restartOverhead += restart
				}
				heap.Push(running, doneEvent{t: failAt, task: t, worker: wk,
					err: errNodeFailure, down: opt.FailPermanent})
				return
			}
			if inj.FailTask(t.Poly, t.Step, meta.Attempt) {
				// Injected task failure: the attempt runs to completion
				// and its result is lost.
				lostWork += dur
				heap.Push(running, doneEvent{t: begin + dur, dur: dur, task: t, worker: wk,
					err: resilience.ErrInjected})
				return
			}
			heap.Push(running, doneEvent{t: begin + dur, dur: dur, task: t, worker: wk})
		},
		AwaitFn: func(context.Context) (coord.Completion, error) {
			ev := heap.Pop(running).(doneEvent)
			now = ev.t
			if ev.err != nil {
				return coord.Completion{Worker: ev.worker, Task: ev.task,
					Err:        fmt.Errorf("cluster: task %v on worker %d: %w", ev.task, ev.worker, ev.err),
					WorkerDown: ev.down}, nil
			}
			tasksDone[ev.worker]++
			if pol.Completed(ev.task) {
				// Losing copy of a speculated task: its payload is
				// dropped, the attempt's seconds join the lost work.
				lostWork += ev.dur
				return coord.Completion{Worker: ev.worker, Task: ev.task}, nil
			}
			completions++
			if now > lastDone[ev.task.Step] {
				lastDone[ev.task.Step] = now
			}
			_, fl := taskCost(ev.task)
			totalFlops += fl
			return coord.Completion{Worker: ev.worker, Task: ev.task}, nil
		},
	}
	runStats, err := coord.RunContext(context.Background(), pol, backend, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	res := &Result{
		Machine:    m.Name,
		Nodes:      opt.Nodes,
		Workers:    nWorkers,
		Steps:      opt.Steps,
		Makespan:   now,
		TotalFLOPs: totalFlops,
		NPolymers:  nPoly,
		CoordBusy:  superBusy,
		Batches:    pol.Batches(),
		Steals:     pol.Steals(),

		Recoveries:      runStats.Retries,
		LostWork:        lostWork,
		RestartOverhead: restartOverhead,
		Evicted:         runStats.Evicted,
		Speculated:      runStats.Speculated,
	}
	for t := 0; t < opt.Steps; t++ {
		res.StepSeconds = append(res.StepSeconds, lastDone[t]-firstStart[t])
	}
	// Effective step latency: total wall time over steps, the paper's
	// time-to-solution metric (under async, individual step spans
	// overlap and would double-count).
	res.AvgStep = now / float64(opt.Steps)
	res.PFLOPS = totalFlops / now / 1e15
	res.PeakFraction = res.PFLOPS / m.TotalPeakPF(opt.Nodes)
	res.CoordUtil = superBusy / now
	res.Throughput = float64(completions) / now
	return res, nil
}
