package netcoord

import (
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

const dt = 0.5 * chem.AtomicTimePerFs

// checkGoroutines registers a leak check that runs after the test's
// other cleanups (t.Cleanup is LIFO): the goroutine count must return
// to its pre-test baseline once workers are cancelled and the
// coordinator closed.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
	})
}

func waterFrag(t *testing.T, nWater int) *fragment.Fragmentation {
	t.Helper()
	f, err := fragment.ByMolecule(molecule.WaterCluster(nWater), 3, 1,
		fragment.Options{DimerCutoff: 12, TrimerCutoff: 9})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newState(f *fragment.Fragmentation, seed int64) *md.State {
	s := md.NewState(f.Geom.Clone())
	s.SampleVelocities(150, rand.New(rand.NewSource(seed)))
	return s
}

// startCoordinator listens on an ephemeral port with fast heartbeats
// and closes on cleanup.
func startCoordinator(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startWorker runs one worker goroutine against addr and returns its
// cancel func; cleanup cancels and waits for exit.
func startWorker(t *testing.T, addr string, opts WorkerOptions) context.CancelFunc {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := RunWorker(ctx, addr, opts); err != nil {
			t.Errorf("worker exited: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// runTrajectory drives the engine for n steps and returns final state
// and per-step stats; opts.Exec == nil runs the in-process reference.
func runTrajectory(t *testing.T, f *fragment.Fragmentation, eval fragment.Evaluator,
	opts sched.Options, seed int64, n int) (*md.State, []sched.StepStats) {
	t.Helper()
	opts.Dt = dt
	opts.Async = true
	eng, err := sched.New(f, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	state := newState(f, seed)
	stats, err := eng.Run(state, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return state, stats
}

func assertTrajectoriesMatch(t *testing.T, want, got *md.State, wantStats, gotStats []sched.StepStats) {
	t.Helper()
	for s := range wantStats {
		if d := math.Abs(wantStats[s].Etot - gotStats[s].Etot); d > 1e-10 {
			t.Errorf("Etot diverges at step %d by %.2e (local %.12f, network %.12f)",
				s, d, wantStats[s].Etot, gotStats[s].Etot)
		}
	}
	for i := range want.Geom.Atoms {
		for k := 0; k < 3; k++ {
			if d := math.Abs(want.Geom.Atoms[i].Pos[k] - got.Geom.Atoms[i].Pos[k]); d > 1e-10 {
				t.Fatalf("positions diverge at atom %d dim %d by %.2e", i, k, d)
			}
		}
	}
}

// A trajectory over live TCP workers must reproduce the in-process
// engine's energies and positions to 1e-10 — the wire moves only
// serialized geometries and payloads, never different physics.
func TestNetworkMatchesLocalTrajectory(t *testing.T) {
	checkGoroutines(t)
	const steps, seed = 4, 11
	f := waterFrag(t, 6)
	localState, localStats := runTrajectory(t, f, &potential.LennardJones{},
		sched.Options{Workers: 4, Schedule: coord.Schedule{Groups: 2}}, seed, steps)

	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	for i := 0; i < 2; i++ {
		startWorker(t, c.Addr(), WorkerOptions{Slots: 2})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	if x.Workers() != 4 || x.Procs() != 2 {
		t.Fatalf("executor snapshot: %d slots over %d procs, want 4 over 2", x.Workers(), x.Procs())
	}
	netState, netStats := runTrajectory(t, f, nil,
		sched.Options{Exec: x, Schedule: coord.Schedule{Groups: x.Procs()}}, seed, steps)
	assertTrajectoriesMatch(t, localState, netState, localStats, netStats)
}

// Same equivalence for an EE-MBE trajectory: charge tasks and embedded
// polymer evaluations both cross the wire (the workers use an explicit
// evaluator override carrying the embedding charge model).
func TestNetworkMatchesLocalEmbedded(t *testing.T) {
	checkGoroutines(t)
	const steps, seed = 2, 5
	embedEval := func() fragment.Evaluator {
		return &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
	}
	f := waterFrag(t, 5)
	embed := &fragment.EmbedOptions{SCC: 1, Damping: 0.2}
	localState, localStats := runTrajectory(t, f, embedEval(),
		sched.Options{Workers: 3, Embed: embed}, seed, steps)

	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	startWorker(t, c.Addr(), WorkerOptions{Slots: 2, Eval: embedEval()})
	startWorker(t, c.Addr(), WorkerOptions{Slots: 1, Eval: embedEval()})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	netState, netStats := runTrajectory(t, f, nil,
		sched.Options{Exec: x, Schedule: coord.Schedule{Groups: x.Procs()}, Embed: embed}, seed, steps)
	assertTrajectoriesMatch(t, localState, netState, localStats, netStats)
}

// slowEval paces evaluations so a run keeps in-flight work on every
// worker long enough for mid-run failures to matter.
type slowEval struct {
	lj    potential.LennardJones
	delay time.Duration
}

func (s *slowEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	time.Sleep(s.delay)
	return s.lj.Evaluate(g)
}

// severEval severs its own worker's connection (by cancelling the
// worker context) after a fixed number of evaluations — the in-test
// stand-in for a network partition or kill -9.
type severEval struct {
	slowEval
	evals atomic.Int64
	after int64
	sever func()
	once  sync.Once
}

func (s *severEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	if s.evals.Add(1) > s.after {
		s.once.Do(s.sever)
	}
	return s.slowEval.Evaluate(g)
}

// Severing a worker's connection mid-run must evict only that worker:
// its in-flight attempts are reclaimed, re-queued on the survivors,
// and the trajectory still matches the single-process reference.
func TestSeveredConnectionEvictsAndRecovers(t *testing.T) {
	checkGoroutines(t)
	const steps, seed = 3, 23
	f := waterFrag(t, 6)
	localState, localStats := runTrajectory(t, f, &potential.LennardJones{},
		sched.Options{Workers: 3}, seed, steps)

	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	startWorker(t, c.Addr(), WorkerOptions{Slots: 2, Eval: &slowEval{delay: 2 * time.Millisecond}})
	victimCtx, severVictim := context.WithCancel(context.Background())
	defer severVictim()
	victim := &severEval{slowEval: slowEval{delay: 2 * time.Millisecond}, after: 2, sever: severVictim}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		RunWorker(victimCtx, c.Addr(), WorkerOptions{Slots: 1, Eval: victim, Redial: -1, Logf: t.Logf})
	}()
	t.Cleanup(func() { severVictim(); <-victimDone })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	opts := sched.Options{Exec: x, Schedule: coord.Schedule{Groups: x.Procs(), MaxRetries: 3}}
	opts.Dt, opts.Async = dt, true
	eng, err := sched.New(f, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	netState := newState(f, seed)
	runCtx, cancelRun := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelRun()
	netStats, err := eng.RunContext(runCtx, netState, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if victim.evals.Load() <= victim.after {
		t.Fatalf("victim worker evaluated only %d tasks, sever never triggered", victim.evals.Load())
	}
	if rs := eng.RunStats(); rs.Evicted != 1 {
		t.Errorf("RunStats.Evicted = %d, want exactly 1 (the severed worker)", rs.Evicted)
	}
	assertTrajectoriesMatch(t, localState, netState, localStats, netStats)
}

// panicOnce panics on its first evaluation and evaluates LJ after.
type panicOnce struct {
	lj    potential.LennardJones
	fired atomic.Bool
}

func (p *panicOnce) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("chaos: injected evaluator panic")
	}
	return p.lj.Evaluate(g)
}

// An evaluator panic on a remote worker is a failed attempt the
// coordinator retries, as it is in the in-process pool: the worker
// stays connected and the trajectory matches a clean local run.
func TestChaosRemoteEvaluatorPanicRetried(t *testing.T) {
	checkGoroutines(t)
	const steps, seed = 2, 7
	f := waterFrag(t, 4)
	localState, localStats := runTrajectory(t, f, &potential.LennardJones{},
		sched.Options{Workers: 2}, seed, steps)

	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	eval := &panicOnce{}
	startWorker(t, c.Addr(), WorkerOptions{Slots: 2, Eval: eval})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	opts := sched.Options{Exec: x, Schedule: coord.Schedule{Groups: x.Procs(), MaxRetries: 1}}
	opts.Dt, opts.Async = dt, true
	eng, err := sched.New(f, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	netState := newState(f, seed)
	netStats, err := eng.RunContext(ctx, netState, steps, nil)
	if err != nil {
		t.Fatalf("run died on a recoverable remote panic: %v", err)
	}
	if !eval.fired.Load() {
		t.Fatal("panic never fired")
	}
	if rs := eng.RunStats(); rs.Retries < 1 {
		t.Errorf("RunStats.Retries = %d, want ≥ 1 (the panicked attempt)", rs.Retries)
	}
	assertTrajectoriesMatch(t, localState, netState, localStats, netStats)
}

// A coordinator restart must not strand the fleet: redialling workers
// reattach to the new listener on the same address, and a trajectory
// chunked across the restart matches the same chunking run locally —
// the transport-level half of checkpoint/resume.
func TestCoordinatorRestartReassemblesFleet(t *testing.T) {
	checkGoroutines(t)
	const seed = 31
	f := waterFrag(t, 5)

	// Local reference with identical chunking (2 steps + 2 steps).
	localState := newState(f, seed)
	var localStats []sched.StepStats
	for chunk := 0; chunk < 2; chunk++ {
		eng, err := sched.New(f, &potential.LennardJones{}, sched.Options{Workers: 3, Async: true, Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run(localState, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		localStats = append(localStats, stats...)
	}

	c1, err := Listen("127.0.0.1:0", CoordinatorOptions{
		Eval: potential.Spec{Potential: "lj"}, Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()
	startWorker(t, addr, WorkerOptions{Slots: 2, Redial: 30 * time.Millisecond})
	startWorker(t, addr, WorkerOptions{Slots: 1, Redial: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := c1.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	netState := newState(f, seed)
	var netStats []sched.StepStats
	runChunk := func(c *Coordinator) {
		t.Helper()
		if _, err := c.WaitWorkers(ctx, 2); err != nil {
			t.Fatal(err)
		}
		x := c.Executor()
		eng, err := sched.New(f, nil, sched.Options{Exec: x, Schedule: coord.Schedule{Groups: x.Procs()}, Async: true, Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run(netState, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		netStats = append(netStats, stats...)
	}
	runChunk(c1)
	c1.Close()

	// Restart on the same address; the OS may briefly hold the port.
	var c2 *Coordinator
	for deadline := time.Now().Add(5 * time.Second); ; {
		c2, err = Listen(addr, CoordinatorOptions{
			Eval: potential.Spec{Potential: "lj"}, Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Cleanup(func() { c2.Close() })
	runChunk(c2)

	assertTrajectoriesMatch(t, localState, netState, localStats, netStats)
}

// The coordinator must reject protocol strangers at the first message:
// wrong version, wrong magic, and nonsense slot counts all get an
// explanatory Welcome.Reject before the connection closes.
func TestHandshakeRejectsStrangers(t *testing.T) {
	checkGoroutines(t)
	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	cases := []struct {
		name  string
		hello Hello
	}{
		{"version-mismatch", Hello{Magic: Magic, Version: ProtocolVersion + 1, Slots: 1}},
		{"bad-magic", Hello{Magic: "not-fragmd", Version: ProtocolVersion, Slots: 1}},
		{"zero-slots", Hello{Magic: Magic, Version: ProtocolVersion, Slots: 0}},
		{"huge-slots", Hello{Magic: Magic, Version: ProtocolVersion, Slots: 1 << 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", c.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := gob.NewEncoder(conn).Encode(&frame{Hello: &tc.hello}); err != nil {
				t.Fatal(err)
			}
			var f frame
			if err := gob.NewDecoder(conn).Decode(&f); err != nil {
				t.Fatal(err)
			}
			if f.Welcome == nil || f.Welcome.Reject == "" {
				t.Fatalf("stranger %+v was not rejected (reply %+v)", tc.hello, f)
			}
		})
	}
	if procs, _ := c.Workers(); procs != 0 {
		t.Errorf("%d strangers registered as workers", procs)
	}
}

// A worker whose handshake is rejected must report the rejection
// instead of redialling into the same refusal forever.
func TestRejectedWorkerDoesNotRedial(t *testing.T) {
	checkGoroutines(t)
	// A fake coordinator that rejects everyone.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var f frame
				if gob.NewDecoder(conn).Decode(&f) == nil {
					gob.NewEncoder(conn).Encode(&frame{Welcome: &Welcome{Reject: "go away"}})
				}
			}(conn)
		}
	}()
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunWorker(context.Background(), ln.Addr().String(), WorkerOptions{Redial: time.Millisecond})
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("rejected worker returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rejected worker kept redialling")
	}
}

// Dispatching to a slot of an already-dead process must synthesize an
// immediate WorkerDown result — the engine's eviction path depends on
// exactly one result per Execute.
func TestExecuteOnDeadSlotSynthesizesEviction(t *testing.T) {
	checkGoroutines(t)
	c := startCoordinator(t, CoordinatorOptions{Eval: potential.Spec{Potential: "lj"}})
	cancel := startWorker(t, c.Addr(), WorkerOptions{Slots: 1, Redial: -1})
	ctx, cancelWait := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelWait()
	if _, err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	cancel() // worker gone before any dispatch
	deadline := time.Now().Add(5 * time.Second)
	for {
		if procs, _ := c.Workers(); procs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead worker never left the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
	x.Execute(0, sched.ExecRequest{Geom: molecule.WaterCluster(1)})
	select {
	case r := <-x.Results():
		if !r.WorkerDown || r.Err == nil {
			t.Fatalf("dead-slot result = %+v, want WorkerDown with error", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no synthetic result for dead-slot dispatch")
	}
}

// Lease adapts a run's options to the fleet: the snapshot executes,
// one group per worker process when unset, and a zero retry budget
// becomes 1 because a dead worker's reclaimed attempts are charged to
// it. Budgets and groups the caller set are kept. Eval reports the
// physics the fleet was started with.
func TestLeaseAdaptsOptionsToFleet(t *testing.T) {
	spec := potential.Spec{Potential: "lj", Basis: "sto-3g"}
	c := startCoordinator(t, CoordinatorOptions{Eval: spec})
	if c.Eval() != spec {
		t.Errorf("Eval() = %+v, want %+v", c.Eval(), spec)
	}
	startWorker(t, c.Addr(), WorkerOptions{Slots: 2, Redial: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct{ in, want sched.Options }{
		{sched.Options{Workers: 4}, sched.Options{Schedule: coord.Schedule{Groups: 1, MaxRetries: 1}}},
		{sched.Options{Schedule: coord.Schedule{Groups: 2, MaxRetries: 3}}, sched.Options{Schedule: coord.Schedule{Groups: 2, MaxRetries: 3}}},
	} {
		o := tc.in
		release, err := c.Lease(ctx, 1, &o)
		if err != nil {
			t.Fatal(err)
		}
		if o.Exec == nil || o.Exec.Workers() != 2 || o.Workers != 0 ||
			o.Groups != tc.want.Groups || o.MaxRetries != tc.want.MaxRetries {
			t.Errorf("Lease(%+v) left Exec %v, Workers %d, Groups %d, MaxRetries %d; want a 2-slot Exec, 0, %d, %d",
				tc.in, o.Exec, o.Workers, o.Groups, o.MaxRetries, tc.want.Groups, tc.want.MaxRetries)
		}
		release()
	}
}
