// Package coord is the backend-agnostic scheduling core shared by the
// in-process live engine (internal/sched) and the discrete-event
// cluster simulator (internal/cluster). It owns the paper's scheduling
// policy exactly once:
//
//   - a super-coordinator ready queue ordered by (time step, distance of
//     the polymer's closest monomer to a reference monomer, decreasing
//     polymer size), with a final deterministic tie-break on the
//     polymer's monomer tuple so every backend dispatches the same
//     workload in the same order;
//   - dependency tracking over fragment touch sets (a polymer of step t
//     becomes ready when every monomer it touches has advanced to t;
//     H-cap partners are part of the touch set, §V-F);
//   - per-monomer time-step release (a monomer advances the moment all
//     polymers touching it complete), with an optional global barrier
//     for synchronous mode;
//   - the paper's coordinator hierarchy (§VII): group coordinators that
//     receive *batches* of tasks from the super-coordinator — amortising
//     the serialised super-coordinator over Batch tasks — and feed their
//     local workers, with optional work stealing between groups.
//
// Backends drive the policy through the Backend interface (dispatch /
// complete / clock): the live engine's Await blocks on a result
// channel, the simulator's pops its event heap and advances simulated
// time. The Policy itself is a single-threaded state machine; Run
// serialises all calls on the driver goroutine.
package coord

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Task is one unit of scheduled work at one time step. With
// Options.ChargeRounds == 0 (vacuum MBE) every task is a polymer
// evaluation and Phase is always 0. Under electrostatic embedding the
// step pipelines through phases: Phase r < ChargeRounds is the r-th
// per-monomer charge task (Poly is then a *monomer* index), and Phase
// == ChargeRounds is the polymer-evaluation phase — the phase-1→phase-2
// dependency is a real barrier per step (every polymer of step t waits
// for all of step t's charge rounds).
type Task struct {
	Poly  int32
	Step  int32
	Phase int32
}

// Graph is the static task graph of a fragment workload: one node per
// (polymer, step), with edges induced by the per-polymer monomer
// dependency sets.
type Graph struct {
	// NMono is the number of monomers.
	NMono int
	// Members[pi] lists polymer pi's constituent monomers in ascending
	// order; it doubles as the polymer's canonical identity for
	// deterministic tie-breaking (len(Members[pi]) is the MBE order).
	Members [][]int32
	// Touch[pi] is the full dependency set of polymer pi: its members
	// plus the monomers owning its H-cap partner atoms
	// (fragment.TouchSet).
	Touch [][]int32
	// Touching[mi] lists the polymers whose touch sets contain monomer
	// mi (computed by NewGraph).
	Touching [][]int32
	// Dist[pi] is the distance from polymer pi's closest monomer to the
	// reference monomer — the paper's queue-priority key.
	Dist []float64

	// rank[pi] is polymer pi's place in the within-phase dispatch order
	// (see Policy.less), which depends on the graph alone, so the queue
	// compares two integers instead of distances and monomer tuples.
	rank []int32
}

// NewGraph validates the inputs and computes the monomer→polymer
// reverse index. Every monomer must be touched by some polymer: a
// monomer advances when the last polymer touching it completes, so an
// untouched one would never advance and would stall every polymer it
// belongs to at the next step. Dropping the zero-coefficient polymers
// of an MBE enumeration (Coefficients) always leaves one, because the
// coefficients of the polymers containing a monomer sum to 1.
func NewGraph(nMono int, members, touch [][]int32, dist []float64) (*Graph, error) {
	if len(members) != len(touch) || len(members) != len(dist) {
		return nil, fmt.Errorf("coord: %d members, %d touch sets, %d priorities — lengths must match",
			len(members), len(touch), len(dist))
	}
	if nMono <= 0 {
		return nil, errors.New("coord: need at least one monomer")
	}
	g := &Graph{NMono: nMono, Members: members, Touch: touch, Dist: dist}
	g.Touching = make([][]int32, nMono)
	for pi, ts := range touch {
		if len(members[pi]) == 0 {
			return nil, fmt.Errorf("coord: polymer %d has no members", pi)
		}
		for _, mi := range ts {
			if mi < 0 || int(mi) >= nMono {
				return nil, fmt.Errorf("coord: polymer %d touches monomer %d outside 0..%d", pi, mi, nMono-1)
			}
			g.Touching[mi] = append(g.Touching[mi], int32(pi))
		}
	}
	for mi, ps := range g.Touching {
		if len(ps) == 0 {
			return nil, fmt.Errorf("coord: monomer %d is touched by no polymer and could never advance", mi)
		}
	}
	order := make([]int32, len(members))
	for pi := range order {
		order[pi] = int32(pi)
	}
	sort.Slice(order, func(i, j int) bool { return g.before(order[i], order[j]) })
	g.rank = make([]int32, len(order))
	for r, pi := range order {
		g.rank[pi] = int32(r)
	}
	return g, nil
}

// before orders polymers within one step and phase: distance to the
// reference monomer, then decreasing size, then the monomer tuple.
func (g *Graph) before(a, b int32) bool {
	if da, db := g.Dist[a], g.Dist[b]; da != db {
		return da < db
	}
	ma, mb := g.Members[a], g.Members[b]
	if len(ma) != len(mb) {
		return len(ma) > len(mb)
	}
	for k := range ma {
		if ma[k] != mb[k] {
			return ma[k] < mb[k]
		}
	}
	return false
}

// Coefficients applies the truncated many-body expansion's counting
// rule to an enumeration laid out in index order: nMono monomers (index
// m is monomer m), then dimers, then trimers. Every term of the
// expansion — each monomer, each of the first termDimers dimers (those
// within the dimer cutoff) and each trimer — counts +1 on itself, −1 on
// each of its sub-polymers one order down and +1 on each two orders
// down; the dimers past termDimers are sub-dimers of trimers only and
// are no term of their own. dimers[x] holds dimer x's monomers,
// trimers[x] trimer x's, and triDimers[x] the indices of trimer x's
// three sub-dimers in the full index. E_MBE = Σ_i c_i·E_i. Each c_i is
// a sum of ±1, so it is exact in any order, and the coefficients of the
// polymers containing one monomer sum to exactly 1. A polymer whose
// coefficient is 0 contributes nothing to the energy or the gradient,
// and both backends build their task graph from the others only.
func Coefficients(nMono int, dimers [][2]int32, termDimers int, trimers, triDimers [][3]int32) []float64 {
	c := make([]float64, nMono+len(dimers)+len(trimers))
	for m := 0; m < nMono; m++ {
		c[m] = 1
	}
	for x, d := range dimers[:termDimers] {
		c[nMono+x]++
		c[d[0]]--
		c[d[1]]--
	}
	t0 := nMono + len(dimers)
	for x, tr := range trimers {
		c[t0+x]++
		for _, d := range triDimers[x] {
			c[d]--
		}
		for _, m := range tr {
			c[m]++
		}
	}
	return c
}

// NPoly returns the number of polymers.
func (g *Graph) NPoly() int { return len(g.Members) }

// Priorities computes the queue-priority inputs of the paper's ordering
// for nMono monomers with the given centroids: the reference monomer
// (ref if ≥ 0; otherwise the monomer farthest from sysCentroid — "an
// arbitrary fragment towards an extremity") and, for every polymer, the
// distance of its closest member to that reference. Both backends build
// their Graph.Dist through this one function.
func Priorities(nMono int, members [][]int32, centroid func(mono int) [3]float64, sysCentroid [3]float64, ref int) (refMono int, dist []float64) {
	refMono = ref
	if refMono < 0 {
		best := -1.0
		for m := 0; m < nMono; m++ {
			if d := dist3(centroid(m), sysCentroid); d > best {
				best = d
				refMono = m
			}
		}
	}
	refC := centroid(refMono)
	dist = make([]float64, len(members))
	for pi, ms := range members {
		minD := math.Inf(1)
		for _, m := range ms {
			if d := dist3(centroid(int(m)), refC); d < minD {
				minD = d
			}
		}
		dist[pi] = minD
	}
	return refMono, dist
}

func dist3(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Schedule is the scheduling policy's knobs, declared once: the live
// engine (sched.Options) and the cluster simulator (cluster.Options)
// embed it and hand it to Options unchanged, so one value drives either
// backend and the two dispatch identically. The zero value is the flat
// scheduler with single-task transfers and fatal failures.
type Schedule struct {
	// Groups is the number of group coordinators between the
	// super-coordinator and the workers; values ≤ 1 (and any value when
	// Workers == 1) collapse to a single group, the flat scheduler.
	// Groups is clamped to Workers, and worker w maps to group
	// w·Groups/Workers (contiguous blocks).
	Groups int
	// Batch is the number of tasks transferred per super-coordinator →
	// group-coordinator refill; ≤ 1 means single-task transfers.
	Batch int
	// Steal lets a group whose queue and the super-coordinator's are
	// both empty steal the lower-priority half of the fullest peer
	// group's queue.
	Steal bool
	// MaxRetries is the per-task failure budget: an attempt that a
	// backend reports as failed (evaluator error or panic, injected
	// failure, lost worker) is re-queued on a surviving worker at most
	// MaxRetries times before the run aborts. 0 keeps the first failure
	// fatal.
	MaxRetries int
	// Speculate enables straggler re-dispatch: when workers sit idle
	// with nothing ready, the oldest still-running task is dispatched a
	// second time (at most one extra copy per task); the first copy to
	// complete wins and the duplicate completion is dropped, so results
	// are unchanged.
	Speculate bool
	// TraceDispatch, when non-nil, observes every dispatch in order,
	// retries and speculative copies included; RunContext calls it just
	// before Backend.Dispatch. It is the hook the policy-equivalence
	// tests compare the two backends through.
	TraceDispatch func(t Task, m DispatchMeta)
}

// Validate rejects negative counts; it is the one check of the knobs.
func (s Schedule) Validate() error {
	switch {
	case s.Groups < 0:
		return fmt.Errorf("coord: group count %d must not be negative", s.Groups)
	case s.Batch < 0:
		return fmt.Errorf("coord: batch size %d must not be negative", s.Batch)
	case s.MaxRetries < 0:
		return fmt.Errorf("coord: retry budget %d must not be negative", s.MaxRetries)
	}
	return nil
}

// Options configures a Policy.
type Options struct {
	Schedule
	// Steps is the number of time steps (≥ 1).
	Steps int
	// Workers is the number of backend workers (≥ 1).
	Workers int
	// Sync inserts a global barrier between time steps instead of the
	// per-monomer release.
	Sync bool

	// ChargeRounds engages the two-phase EE-MBE pipeline: every step
	// first runs ChargeRounds rounds of per-monomer charge tasks
	// (round 0 = vacuum charges, later rounds = SCC refinements, each
	// round a barrier over all monomers), and only then releases the
	// step's polymer evaluations. 0 = vacuum MBE, no charge tasks.
	ChargeRounds int
}

// DispatchMeta describes the coordination events behind one dispatch;
// cost-modelling backends charge for them.
type DispatchMeta struct {
	// Group is the group coordinator the task was dispatched through.
	Group int
	// Refill, when > 0, is the size of the super→group batch transfer
	// that immediately preceded this dispatch.
	Refill int
	// Stolen, when > 0, is the number of tasks this group just stole
	// from a peer.
	Stolen int
	// Attempt numbers the dispatches of this task: 0 for the first
	// attempt, incremented for every retry and speculative copy.
	// Failure injectors key their deterministic decisions on it.
	Attempt int
	// Speculative marks a straggler re-dispatch: the task is already
	// running elsewhere and this copy races it.
	Speculative bool
}

// Policy is the single-threaded scheduling state machine. All methods
// must be called from one goroutine (Run's driver loop).
type Policy struct {
	g    *Graph
	opts Options

	groups int
	batch  int

	ready taskHeap // super-coordinator priority queue
	local [][]Task // per-group local queues, priority-ordered

	nextStep    []int32 // next step each polymer should enqueue
	monoStep    []int32 // step whose positions are current per monomer
	monoPending []int32 // outstanding polymer results per monomer
	globalMin   int32   // sync-mode barrier front

	chargeRounds int       // charge phases per step (0 = vacuum)
	chargeDone   [][]int32 // [step][round] completed charge tasks
	polyDone     []int32   // completed polymer tasks per step (embedding)
	tasksPerStep int

	remaining int      // tasks not yet completed
	done      []uint64 // completion bitset over task index
	batches   int
	steals    int
}

// NewPolicy creates a policy over g and fills the step-0 ready queue.
func NewPolicy(g *Graph, opts Options) (*Policy, error) {
	if opts.Steps <= 0 {
		return nil, errors.New("coord: need at least one step")
	}
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("coord: worker count %d must be positive", opts.Workers)
	}
	if err := opts.Schedule.Validate(); err != nil {
		return nil, err
	}
	if opts.ChargeRounds < 0 {
		return nil, fmt.Errorf("coord: charge round count %d must not be negative", opts.ChargeRounds)
	}
	p := &Policy{g: g, opts: opts}
	p.groups = opts.Groups
	if p.groups < 1 {
		p.groups = 1
	}
	if p.groups > opts.Workers {
		p.groups = opts.Workers
	}
	p.batch = opts.Batch
	if p.batch < 1 {
		p.batch = 1
	}
	p.ready.p = p
	p.local = make([][]Task, p.groups)
	p.nextStep = make([]int32, g.NPoly())
	p.monoStep = make([]int32, g.NMono)
	p.monoPending = make([]int32, g.NMono)
	for mi := range p.monoPending {
		p.monoPending[mi] = int32(len(g.Touching[mi]))
	}
	p.chargeRounds = opts.ChargeRounds
	p.tasksPerStep = p.chargeRounds*g.NMono + g.NPoly()
	p.chargeDone = make([][]int32, opts.Steps)
	for t := range p.chargeDone {
		p.chargeDone[t] = make([]int32, p.chargeRounds)
	}
	if p.chargeRounds > 0 {
		p.polyDone = make([]int32, opts.Steps)
	}
	p.remaining = p.tasksPerStep * opts.Steps
	p.done = make([]uint64, (p.remaining+63)/64)
	for mi := int32(0); mi < int32(g.NMono) && p.chargeRounds > 0; mi++ {
		p.ready.push(Task{Poly: mi, Step: 0, Phase: 0})
	}
	for pi := int32(0); pi < int32(g.NPoly()); pi++ {
		p.tryEnqueue(pi)
	}
	return p, nil
}

// ChargeRounds returns the number of charge phases per step.
func (p *Policy) ChargeRounds() int { return p.chargeRounds }

// isCharge reports whether t is a per-monomer charge task.
func (p *Policy) isCharge(t Task) bool { return int(t.Phase) < p.chargeRounds }

// chargeReady reports whether step t's polymer phase is unblocked:
// every charge round of the step has completed on every monomer.
func (p *Policy) chargeReady(t int32) bool {
	return p.chargeRounds == 0 || p.chargeDone[t][p.chargeRounds-1] == int32(p.g.NMono)
}

// Groups returns the effective group-coordinator count.
func (p *Policy) Groups() int { return p.groups }

// Batch returns the effective super→group batch size.
func (p *Policy) Batch() int { return p.batch }

// Batches returns how many super→group batch transfers happened.
func (p *Policy) Batches() int { return p.batches }

// Steals returns how many inter-group steals happened.
func (p *Policy) Steals() int { return p.steals }

// Done reports whether every task of every step has completed.
func (p *Policy) Done() bool { return p.remaining == 0 }

// slot is t's index within its step: the step's charge rounds first,
// then its polymers.
func (p *Policy) slot(t Task) int {
	if p.isCharge(t) {
		return int(t.Phase)*p.g.NMono + int(t.Poly)
	}
	return p.chargeRounds*p.g.NMono + int(t.Poly)
}

// taskIndex maps a task to its bit in the completion set (step-major).
func (p *Policy) taskIndex(t Task) int { return int(t.Step)*p.tasksPerStep + p.slot(t) }

// Completed reports whether task t has already completed. Backends use
// it to drop the payload of late duplicate completions (a speculated
// task finishing twice) before the driver sees them.
func (p *Policy) Completed(t Task) bool {
	i := p.taskIndex(t)
	return p.done[i/64]&(1<<(i%64)) != 0
}

// Requeue puts a reclaimed task — a failed attempt, or work stranded on
// an evicted worker — back on the super-coordinator's ready queue. A
// task that already completed (its speculative twin won) is left alone.
func (p *Policy) Requeue(t Task) {
	if p.Completed(t) {
		return
	}
	p.ready.push(t)
}

// GroupOf maps a worker to its group coordinator (contiguous blocks).
func (p *Policy) GroupOf(worker int) int { return worker * p.groups / p.opts.Workers }

// less is the total dispatch order: step, then phase (charge rounds
// before the polymer phase), then — for charge tasks — the monomer
// index, or — for polymers — their rank under Graph.before (distance to
// the reference monomer, then decreasing polymer size, then the
// polymer's monomer tuple). Fully deterministic and backend-independent.
func (p *Policy) less(a, b Task) bool {
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if p.isCharge(a) {
		return a.Poly < b.Poly
	}
	return p.g.rank[a.Poly] < p.g.rank[b.Poly]
}

// tryEnqueue pushes every ready step of polymer pi onto the super
// queue.
func (p *Policy) tryEnqueue(pi int32) {
	for p.nextStep[pi] < int32(p.opts.Steps) {
		t := p.nextStep[pi]
		for _, mi := range p.g.Touch[pi] {
			if p.monoStep[mi] < t {
				return
			}
		}
		if p.opts.Sync && p.globalMin < t {
			// Synchronous mode: no polymer of step t launches until
			// every monomer reached step t.
			return
		}
		if !p.chargeReady(t) {
			// Phase barrier: step t's embedding charges are not final.
			return
		}
		p.ready.push(Task{Poly: pi, Step: t, Phase: int32(p.chargeRounds)})
		p.nextStep[pi]++
	}
}

// Next picks the next task for the given worker: from its group's local
// queue, refilling the queue with a batch from the super-coordinator
// when empty, or stealing from the fullest peer when the
// super-coordinator is also empty. ok is false when nothing is ready
// for this worker right now.
func (p *Policy) Next(worker int) (t Task, m DispatchMeta, ok bool) {
	gid := p.GroupOf(worker)
	m.Group = gid
	if len(p.local[gid]) == 0 {
		switch {
		case p.ready.Len() > 0:
			k := p.batch
			if k > p.ready.Len() {
				k = p.ready.Len()
			}
			for i := 0; i < k; i++ {
				p.local[gid] = append(p.local[gid], p.ready.pop())
			}
			m.Refill = k
			p.batches++
		case p.opts.Steal && p.groups > 1:
			victim, most := -1, 0
			for g2 := range p.local {
				if g2 != gid && len(p.local[g2]) > most {
					victim, most = g2, len(p.local[g2])
				}
			}
			if victim >= 0 {
				take := (most + 1) / 2
				vq := p.local[victim]
				// Take the lower-priority tail; the victim keeps the
				// head it is about to dispatch.
				p.local[gid] = append(p.local[gid], vq[len(vq)-take:]...)
				p.local[victim] = vq[:len(vq)-take]
				m.Stolen = take
				p.steals++
			}
		}
	}
	q := p.local[gid]
	if len(q) == 0 {
		return Task{}, DispatchMeta{Group: gid}, false
	}
	if len(q) == 1 {
		p.local[gid] = q[:0] // keep the backing array for the next refill
	} else {
		p.local[gid] = q[1:]
	}
	return q[0], m, true
}

// peek returns the task Next(worker) would return, without taking it,
// when Next would need neither a steal nor a multi-task refill: those
// move several tasks at once, which a hand-off must not do ahead of the
// completions that precede them under single-task dispatch.
func (p *Policy) peek(worker int) (Task, bool) {
	if q := p.local[p.GroupOf(worker)]; len(q) > 0 {
		return q[0], true
	}
	if p.batch == 1 && p.ready.Len() > 0 {
		return p.ready.items[0], true
	}
	return Task{}, false
}

// Complete records that task t finished. A charge task counts toward
// its (step, round) barrier: the last completion of a round enqueues
// the next round, and the last completion of the final round releases
// the step's polymer phase. For a polymer task, every monomer of t's
// touch set whose last outstanding polymer this was fires advanced
// (the live backend integrates the monomer there) and advances,
// releasing newly ready work. Completing a task twice is a no-op (the
// driver drops duplicate completions before calling this, but the
// bitset makes the invariant local).
func (p *Policy) Complete(t Task, advanced func(mono, step int32)) {
	i := p.taskIndex(t)
	if p.done[i/64]&(1<<(i%64)) != 0 {
		return
	}
	p.done[i/64] |= 1 << (i % 64)
	p.remaining--
	if p.isCharge(t) {
		p.chargeDone[t.Step][t.Phase]++
		if p.chargeDone[t.Step][t.Phase] != int32(p.g.NMono) {
			return
		}
		if next := t.Phase + 1; int(next) < p.chargeRounds {
			// Every monomer completed round Phase of this step — and a
			// completed round 0 implies every monomer has reached the
			// step, so all field-site positions exist. Launch the next
			// round wholesale (it is a barrier, not per-monomer).
			for mi := int32(0); mi < int32(p.g.NMono); mi++ {
				p.ready.push(Task{Poly: mi, Step: t.Step, Phase: next})
			}
			return
		}
		// Final round done: the step's polymer phase unblocks.
		for pi := int32(0); pi < int32(p.g.NPoly()); pi++ {
			p.tryEnqueue(pi)
		}
		return
	}
	if p.chargeRounds > 0 {
		// Electrostatic embedding globally couples the forces: every
		// polymer's field sites exert forces on *all* monomers, so no
		// monomer's step-t force is complete until every polymer of
		// step t is. Per-monomer release — valid for vacuum MBE, where
		// only the touch set feels a polymer — would integrate early
		// with truncated forces and break NVE conservation. Embedded
		// steps therefore release wholesale.
		p.polyDone[t.Step]++
		if p.polyDone[t.Step] == int32(p.g.NPoly()) {
			for mi := int32(0); mi < int32(p.g.NMono); mi++ {
				p.advanceMono(mi, t.Step, advanced)
			}
		}
		return
	}
	for _, mi := range p.g.Touch[t.Poly] {
		p.monoPending[mi]--
		if p.monoPending[mi] == 0 && p.monoStep[mi] == t.Step {
			p.advanceMono(mi, t.Step, advanced)
		}
	}
}

func (p *Policy) advanceMono(mi, t int32, advanced func(mono, step int32)) {
	if advanced != nil {
		advanced(mi, t)
	}
	p.monoStep[mi] = t + 1
	p.monoPending[mi] = int32(len(p.g.Touching[mi]))
	if p.chargeRounds > 0 && int(t+1) < p.opts.Steps {
		// The monomer's next-step positions exist now, which is all a
		// round-0 (vacuum) charge task needs — later rounds and the
		// step's polymers still wait on their barriers, preserving what
		// asynchrony the embedding allows.
		p.ready.push(Task{Poly: mi, Step: t + 1, Phase: 0})
	}
	if p.opts.Sync {
		newMin := p.monoStep[mi]
		for _, s := range p.monoStep {
			if s < newMin {
				newMin = s
			}
		}
		if newMin > p.globalMin {
			p.globalMin = newMin
			for pi := int32(0); pi < int32(p.g.NPoly()); pi++ {
				p.tryEnqueue(pi)
			}
		}
		return
	}
	for _, pi := range p.g.Touching[mi] {
		p.tryEnqueue(pi)
	}
}

// taskHeap is the super-coordinator's priority queue: a binary min-heap
// under Policy.less, typed so that pushes and pops neither box tasks
// nor call the ordering through an interface.
type taskHeap struct {
	items []Task
	p     *Policy
}

func (h *taskHeap) Len() int { return len(h.items) }

func (h *taskHeap) push(t Task) {
	h.items = append(h.items, t)
	for i := len(h.items) - 1; i > 0; {
		up := (i - 1) / 2
		if !h.p.less(h.items[i], h.items[up]) {
			break
		}
		h.items[i], h.items[up] = h.items[up], h.items[i]
		i = up
	}
}

func (h *taskHeap) pop() Task {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.p.less(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.p.less(h.items[c], h.items[i]) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}
