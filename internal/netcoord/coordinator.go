package netcoord

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// CoordinatorOptions configures a listening coordinator.
type CoordinatorOptions struct {
	// Eval is the evaluator specification shipped to every worker in
	// the Welcome message.
	Eval potential.Spec
	// Heartbeat is the ping interval (default DefaultHeartbeat);
	// HeartbeatTimeout is how long a connection may stay silent before
	// the process is declared dead (default 5×Heartbeat). Any inbound
	// frame counts as liveness, not just pongs.
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// Coordinator accepts worker registrations on a TCP listener and
// exposes the connected fleet as sched.Executor snapshots. Create one
// with Listen, then Lease the fleet for each sched engine run.
type Coordinator struct {
	ln    net.Listener
	opts  CoordinatorOptions
	lease chan struct{} // one token: the fleet serves one engine run at a time

	mu     sync.Mutex
	procs  map[int64]*proc
	nextID int64
	closed bool
	joinCh chan struct{} // closed and replaced on every membership gain
}

// proc is one connected worker process. Its inflight map is the
// exactly-once gate for result delivery: deliver (a decoded ResultMsg)
// and declareDead (connection loss, heartbeat expiry, send failure)
// both claim entries under mu, and only the claimant reports the
// attempt's outcome — a late result racing an eviction is dropped.
type proc struct {
	c     *Coordinator
	id    int64
	addr  string
	conn  net.Conn
	enc   *gob.Encoder
	slots int
	done  chan struct{} // closed by declareDead

	encMu sync.Mutex

	mu       sync.Mutex
	dead     bool
	lastSeen time.Time
	inflight map[int]inflightAttempt
}

// inflightAttempt joins a dispatched slot back to the engine run that
// dispatched it.
type inflightAttempt struct {
	worker int // engine worker handle
	task   sched.ExecRequest
	out    chan<- sched.ExecResult
}

// Listen starts a coordinator on addr (e.g. ":9137", or ":0" for an
// ephemeral test port) and begins accepting workers immediately.
func Listen(addr string, opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * opts.Heartbeat
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ln:     ln,
		opts:   opts,
		lease:  make(chan struct{}, 1),
		procs:  map[int64]*proc{},
		joinCh: make(chan struct{}),
	}
	go c.accept()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Addr returns the listener's address — the value workers dial, and
// what tests parse when listening on ":0".
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops accepting registrations and severs every connected
// worker. Workers with redialling enabled park in their dial loops, so
// a restarted coordinator (same address) reassembles the fleet — the
// resume path for internal/resilience checkpoints.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	procs := make([]*proc, 0, len(c.procs))
	for _, p := range c.procs {
		procs = append(procs, p)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	for _, p := range procs {
		c.declareDead(p, errors.New("coordinator shut down"))
	}
	return err
}

// Workers returns the number of live connected worker processes and
// the total evaluation slots they offer.
func (c *Coordinator) Workers() (procs, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.procs {
		procs++
		slots += p.slots
	}
	return procs, slots
}

// WaitWorkers blocks until at least min worker processes are
// registered (or ctx ends). It returns the number of processes seen.
func (c *Coordinator) WaitWorkers(ctx context.Context, min int) (int, error) {
	for {
		c.mu.Lock()
		n := len(c.procs)
		join := c.joinCh
		c.mu.Unlock()
		if n >= min {
			return n, nil
		}
		select {
		case <-join:
		case <-ctx.Done():
			return n, fmt.Errorf("netcoord: waiting for %d workers (have %d): %w", min, n, ctx.Err())
		}
	}
}

func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.register(conn)
	}
}

// register performs the coordinator side of the handshake and, on
// success, adds the process to the registry and starts its reader and
// heartbeat goroutines.
func (c *Coordinator) register(conn net.Conn) {
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	// A connection that cannot even accept a deadline is already dying;
	// proceeding without one would leave the handshake read unbounded,
	// wedging this goroutine on a half-open peer forever.
	if err := conn.SetReadDeadline(time.Now().Add(c.opts.HeartbeatTimeout)); err != nil {
		c.logf("netcoord: dropped %s: handshake read deadline: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	var hf frame
	if err := dec.Decode(&hf); err != nil || hf.Hello == nil {
		conn.Close()
		return
	}
	h := hf.Hello
	if reject := func() string {
		switch {
		case h.Magic != Magic:
			return fmt.Sprintf("bad magic %q", h.Magic)
		case h.Version != ProtocolVersion:
			return fmt.Sprintf("protocol version %d, coordinator speaks %d", h.Version, ProtocolVersion)
		case h.Slots < 1:
			return fmt.Sprintf("invalid slot count %d", h.Slots)
		default:
			return ""
		}
	}(); reject != "" {
		c.logf("netcoord: rejected %s: %s", conn.RemoteAddr(), reject)
		enc.Encode(&frame{Welcome: &Welcome{Reject: reject}})
		conn.Close()
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		c.logf("netcoord: dropped %s: clear handshake deadline: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	if err := conn.SetWriteDeadline(time.Now().Add(c.opts.HeartbeatTimeout)); err != nil {
		c.logf("netcoord: dropped %s: welcome write deadline: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	if err := enc.Encode(&frame{Welcome: &Welcome{Eval: c.opts.Eval, Heartbeat: c.opts.Heartbeat}}); err != nil {
		conn.Close()
		return
	}
	if err := conn.SetWriteDeadline(time.Time{}); err != nil {
		c.logf("netcoord: dropped %s: clear welcome deadline: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}

	p := &proc{
		c:        c,
		addr:     conn.RemoteAddr().String(),
		conn:     conn,
		enc:      enc,
		slots:    h.Slots,
		done:     make(chan struct{}),
		lastSeen: time.Now(),
		inflight: map[int]inflightAttempt{},
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.nextID++
	p.id = c.nextID
	c.procs[p.id] = p
	close(c.joinCh)
	c.joinCh = make(chan struct{})
	c.mu.Unlock()
	c.logf("netcoord: worker %d registered from %s with %d slot(s)", p.id, p.addr, p.slots)
	go c.read(p, dec)
	go c.heartbeat(p)
}

// send encodes one frame on the process's connection under a write
// deadline, so a wedged peer cannot block the caller past the
// heartbeat timeout. A failed deadline set is reported like a failed
// write: without the deadline the encode could block forever on a
// dying connection, silently defeating the heartbeat eviction path, so
// the connection must be treated as dead — every caller routes a send
// error through declareDead.
func (p *proc) send(f *frame) error {
	p.encMu.Lock()
	defer p.encMu.Unlock()
	if err := p.conn.SetWriteDeadline(time.Now().Add(p.c.opts.HeartbeatTimeout)); err != nil {
		return fmt.Errorf("set write deadline: %w", err)
	}
	return p.enc.Encode(f)
}

// read drains the process's connection: results are joined to their
// in-flight attempts, and every inbound frame refreshes liveness. A
// decode error of any kind means the connection is unusable, which is
// a declaration of death.
func (c *Coordinator) read(p *proc, dec *gob.Decoder) {
	for {
		f := new(frame)
		if err := dec.Decode(f); err != nil {
			c.declareDead(p, fmt.Errorf("connection lost: %w", err))
			return
		}
		p.mu.Lock()
		p.lastSeen = time.Now()
		p.mu.Unlock()
		if f.Result != nil {
			c.deliver(p, f.Result)
		}
	}
}

// deliver reports one remote result to the engine run that dispatched
// it. Results for slots with no matching in-flight attempt — or with a
// different task than dispatched — are stale leftovers of an earlier,
// abandoned engine run racing a fresh dispatch on the same slot, and
// are dropped: only the matching attempt may be reported, exactly
// once.
func (c *Coordinator) deliver(p *proc, r *ResultMsg) {
	p.mu.Lock()
	att, ok := p.inflight[r.Slot]
	if ok && att.task.Task != r.Task {
		ok = false
	}
	if !ok || p.dead {
		p.mu.Unlock()
		c.logf("netcoord: dropped stale result for task %v from worker %d slot %d", r.Task, p.id, r.Slot)
		return
	}
	delete(p.inflight, r.Slot)
	p.mu.Unlock()
	res := sched.ExecResult{
		Worker:    att.worker,
		Task:      r.Task,
		E:         r.E,
		Grad:      r.Grad,
		FieldGrad: r.FieldGrad,
		Charges:   r.Charges,
		Iters:     r.Iters,
	}
	if r.Err != "" {
		res = sched.ExecResult{Worker: att.worker, Task: r.Task,
			Err: fmt.Errorf("netcoord: remote attempt failed on worker %d: %s", p.id, r.Err)}
	}
	att.out <- res
}

// heartbeat pings the process on the configured interval and declares
// it dead when the connection stays silent past the timeout — the
// network-partition detector (a kill -9 usually surfaces faster, as a
// read error or TCP reset).
func (c *Coordinator) heartbeat(p *proc) {
	tick := time.NewTicker(c.opts.Heartbeat)
	defer tick.Stop()
	var seq int64
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
		}
		p.mu.Lock()
		silent := time.Since(p.lastSeen)
		p.mu.Unlock()
		if silent > c.opts.HeartbeatTimeout {
			c.declareDead(p, fmt.Errorf("heartbeat timeout: silent for %s", silent.Round(time.Millisecond)))
			return
		}
		seq++
		if err := p.send(&frame{Ping: &Ping{Seq: seq}}); err != nil {
			c.declareDead(p, fmt.Errorf("ping failed: %w", err))
			return
		}
	}
}

// declareDead removes the process from the fleet and reports a
// WorkerDown failure for each of its in-flight attempts — the network
// backend's equivalent of the simulator's injected deaths, feeding the
// same coord eviction/re-queue path. The connection is closed before
// the evictions are reported, so a straggling result can never arrive
// after its slot was declared down. Idempotent: only the first caller
// acts.
func (c *Coordinator) declareDead(p *proc, cause error) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	orphans := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	close(p.done)
	p.conn.Close()
	c.mu.Lock()
	delete(c.procs, p.id)
	c.mu.Unlock()
	c.logf("netcoord: worker %d (%s) declared dead: %v (%d attempts reclaimed)",
		p.id, p.addr, cause, len(orphans))
	for _, att := range orphans {
		att.out <- sched.ExecResult{
			Worker:     att.worker,
			Task:       att.task.Task,
			Err:        fmt.Errorf("netcoord: worker %d died mid-attempt: %w", p.id, cause),
			WorkerDown: true,
		}
	}
}

// Executor freezes the current fleet into a sched.Executor for one
// engine run: engine worker handles 0..Workers()-1 map onto the
// processes' slots, contiguously per process and ordered by
// registration, so coord's contiguous group assignment puts each
// remote process under its own group coordinator. Workers that join
// after the snapshot park until the next Executor() call — the dense
// fixed-handle invariant coord.RunContext enforces.
type Executor struct {
	procs     []*proc
	slotProc  []*proc
	slotLocal []int
	results   chan sched.ExecResult
}

// Lease reserves the fleet for one engine run: it waits for the
// previous lease's release and for at least min worker processes, then
// points o at a fresh snapshot — Exec is set, Workers adopts its slot
// count, and Groups, when unset, becomes one group per worker process.
// Leases are exclusive because a snapshot maps fleet slots to one
// engine's worker handles: two concurrent engines would corrupt each
// other's in-flight bookkeeping. Call release when the run ends.
func (c *Coordinator) Lease(ctx context.Context, min int, o *sched.Options) (release func(), err error) {
	select {
	case c.lease <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("netcoord: waiting for the fleet lease: %w", ctx.Err())
	}
	release = func() { <-c.lease }
	if _, err = c.WaitWorkers(ctx, min); err != nil {
		release()
		return nil, err
	}
	x := c.Executor()
	o.Exec = x
	o.Workers = 0
	if o.Groups == 0 {
		o.Groups = x.Procs()
	}
	return release, nil
}

// Executor snapshots the live fleet. Call WaitWorkers first; a
// snapshot with zero slots cannot run an engine.
func (c *Coordinator) Executor() *Executor {
	c.mu.Lock()
	procs := make([]*proc, 0, len(c.procs))
	for _, p := range c.procs {
		procs = append(procs, p)
	}
	c.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	x := &Executor{procs: procs}
	for _, p := range procs {
		for s := 0; s < p.slots; s++ {
			x.slotProc = append(x.slotProc, p)
			x.slotLocal = append(x.slotLocal, s)
		}
	}
	x.results = make(chan sched.ExecResult, len(x.slotProc)+1)
	return x
}

// Workers returns the snapshot's total slot count.
func (x *Executor) Workers() int { return len(x.slotProc) }

// Procs returns the number of worker processes in the snapshot — the
// natural Options.Groups for an engine run over it.
func (x *Executor) Procs() int { return len(x.procs) }

// Execute ships the attempt to the slot's worker process. A dead
// process (or a send failure, which kills it) surfaces as a WorkerDown
// result through the usual eviction path; the engine run must budget
// retries for those re-queues (Options.MaxRetries ≥ 1).
func (x *Executor) Execute(w int, req sched.ExecRequest) {
	p := x.slotProc[w]
	slot := x.slotLocal[w]
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		x.results <- sched.ExecResult{
			Worker:     w,
			Task:       req.Task,
			Err:        fmt.Errorf("netcoord: worker %d is dead, slot %d evicted", p.id, w),
			WorkerDown: true,
		}
		return
	}
	p.inflight[slot] = inflightAttempt{worker: w, task: req, out: x.results}
	p.mu.Unlock()
	if err := p.send(&frame{Task: &TaskMsg{Slot: slot, Req: req}}); err != nil {
		// The failed send makes the connection unusable; declareDead
		// claims this attempt along with any other in-flight work and
		// reports each exactly once.
		p.c.declareDead(p, fmt.Errorf("task send failed: %w", err))
	}
}

// Results returns the snapshot's result channel (buffered for one
// outstanding result per slot).
func (x *Executor) Results() <-chan sched.ExecResult { return x.results }
