package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
)

// waterXYZ renders an n-molecule water cluster as XYZ text, the wire
// form a client submits.
func waterXYZ(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := molecule.WaterCluster(n).WriteXYZ(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// ljSpec is the small standard job of this suite: a Lennard-Jones
// water-cluster trajectory, fast enough to run by the dozen under
// -race.
func ljSpec(t *testing.T, tenant string, molecules, steps int) JobSpec {
	t.Helper()
	return JobSpec{
		Tenant: tenant, XYZ: waterXYZ(t, molecules), Potential: "lj",
		Steps: steps, Warm: true,
	}
}

// serialEnergies runs the spec's trajectory directly through one
// single-worker engine — the reference the server's concurrent,
// chunked, possibly-resumed runs must reproduce.
func serialEnergies(t *testing.T, spec JobSpec) []float64 {
	t.Helper()
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	f, err := spec.system()
	if err != nil {
		t.Fatal(err)
	}
	eval, err := spec.eval().Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{
		Workers: 1, Async: true, Dt: spec.DtFs * chem.AtomicTimePerFs,
		WarmStart: spec.Warm,
	}
	eng, err := sched.New(f, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom)
	state.SampleVelocities(spec.TempK, rand.New(rand.NewSource(spec.Seed)))
	stats, err := eng.Run(state, spec.Steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(stats))
	for i, st := range stats {
		out[i] = st.Etot
	}
	return out
}

// postJob submits a spec over HTTP and returns the assigned ID.
func postJob(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return view.ID
}

// waitTerminal polls a job over HTTP until it reaches a terminal
// status.
func waitTerminal(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Status.terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchResult retrieves the full stats payload.
func fetchResult(t *testing.T, base, id string) JobResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// assertTrajectory checks a completed job's stats against the serial
// reference: every step exactly once, in order, energies within tol.
func assertTrajectory(t *testing.T, res JobResult, ref []float64, tol float64) {
	t.Helper()
	if res.Status != StatusDone {
		t.Fatalf("job %s: status %s (%s)", res.ID, res.Status, res.Error)
	}
	if len(res.Stats) != len(ref) {
		t.Fatalf("job %s: %d steps reported, want %d", res.ID, len(res.Stats), len(ref))
	}
	for i, st := range res.Stats {
		if st.Step != i {
			t.Fatalf("job %s: stats[%d] is step %d — lost or duplicated steps", res.ID, i, st.Step)
		}
		if d := math.Abs(st.Etot - ref[i]); d > tol {
			t.Errorf("job %s step %d: Etot %.12f, serial %.12f (|Δ| %.2e > %g)",
				res.ID, i, st.Etot, ref[i], d, tol)
		}
	}
}

// N tenants × M concurrent jobs over one shared warm-start cache must
// each reproduce the serial single-engine trajectory to ≤1e-10 Ha.
func TestConcurrentTenantsMatchSerial(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), MaxActive: 6, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ref := serialEnergies(t, ljSpec(t, "ref", 2, 6))
	tenants := []string{"alice", "bob", "carol"}
	var ids []string
	for _, tenant := range tenants {
		for k := 0; k < 3; k++ {
			ids = append(ids, postJob(t, ts.URL, ljSpec(t, tenant, 2, 6)))
		}
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
		assertTrajectory(t, fetchResult(t, ts.URL, id), ref, 1e-10)
	}
	counts, _ := s.Stats()
	for _, tenant := range tenants {
		if got := counts[tenant].Done; got != 3 {
			t.Errorf("tenant %s: %d done, want 3", tenant, got)
		}
	}
}

// Killing the server mid-job (Close cancels every engine) and starting
// a successor on the same state directory must resume every
// checkpointed job with no lost or duplicated steps and unchanged
// energies.
func TestCloseRestartResumesEveryJob(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, MaxActive: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := serialEnergies(t, ljSpec(t, "ref", 2, 8))
	var ids []string
	for k := 0; k < 6; k++ {
		view, err := s.Submit(ljSpec(t, fmt.Sprintf("tenant-%d", k%2), 2, 8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	// Let at least one job make checkpointed progress, then kill.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := s.Job(ids[0])
		j.mu.Lock()
		progressed := j.done > 0
		j.mu.Unlock()
		if progressed || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	s2, err := New(Options{StateDir: dir, MaxActive: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
		assertTrajectory(t, fetchResult(t, ts.URL, id), ref, 1e-10)
	}
}

// Drain must stop admissions with 503, park running jobs durably as
// queued, and leave a state directory a successor fully completes.
func TestDrainParksJobsDurably(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, MaxActive: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := serialEnergies(t, ljSpec(t, "ref", 2, 50))
	var ids []string
	for k := 0; k < 3; k++ {
		view, err := s.Submit(ljSpec(t, "solo", 2, 50))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ljSpec(t, "late", 2, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	s.Close()

	s2, err := New(Options{StateDir: dir, MaxActive: 2, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
		assertTrajectory(t, fetchResult(t, ts.URL, id), ref, 1e-10)
	}
}

// A job whose checkpoint was integrated at a different time step is
// refused with the CLI's message (the resume validation lives in the
// shared driver), not silently continued on a different trajectory.
func TestResumeRejectsDtMismatch(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := holdActive(s)
	view, err := s.Submit(ljSpec(t, "t", 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(view.ID)
	ck := resilience.Snapshot(md.NewState(molecule.WaterCluster(2)), 1, 0.25*chem.AtomicTimePerFs)
	if err := resilience.Save(j.ckPath, ck); err != nil {
		t.Fatal(err)
	}
	release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := waitTerminal(t, ts.URL, view.ID)
	if got.Status != StatusFailed || !strings.Contains(got.Error, "rerun with -dt 0.25") {
		t.Fatalf("job finished %s (%q), want failed with the dt-mismatch message", got.Status, got.Error)
	}
}

// holdActive fakes a saturated server so queue behaviour is
// deterministic; the returned release function restores dispatch.
func holdActive(s *Server) (release func()) {
	s.mu.Lock()
	s.activeN += s.opts.MaxActive
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.activeN -= s.opts.MaxActive
		s.dispatchLocked()
		s.mu.Unlock()
	}
}

// Admission control: the queue cap is a hard 503, not a backlog.
func TestAdmissionControl(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := holdActive(s)
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for k := 0; k < 2; k++ {
		if _, err := s.Submit(ljSpec(t, "t", 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := json.Marshal(ljSpec(t, "t", 2, 2))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submit: status %d, want 503", resp.StatusCode)
	}
}

// The dispatcher must drain tenant FIFOs round-robin: a tenant with a
// deep backlog cannot push other tenants' first jobs behind it.
func TestRoundRobinFairness(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), MaxQueued: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := holdActive(s)
	defer release()
	for k := 0; k < 4; k++ {
		if _, err := s.Submit(ljSpec(t, "greedy", 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tenant := range []string{"patient", "quiet"} {
		if _, err := s.Submit(ljSpec(t, tenant, 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	var order []string
	for j := s.popNextLocked(); j != nil; j = s.popNextLocked() {
		order = append(order, j.spec.Tenant)
	}
	s.mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("popped %d jobs, want 6", len(order))
	}
	head := strings.Join(order[:3], ",")
	if head != "greedy,patient,quiet" {
		t.Errorf("first dispatch round %q, want one job per tenant (greedy,patient,quiet)", head)
	}
}

// Cancelling a queued job is immediate and durable; cancelling a
// running job stops it at the next evaluation boundary.
func TestCancel(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, MaxActive: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := holdActive(s)
	queued := postJob(t, ts.URL, ljSpec(t, "t", 2, 2))
	resp, err := http.Post(ts.URL+"/v1/jobs/"+queued+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view := waitTerminal(t, ts.URL, queued); view.Status != StatusCancelled {
		t.Fatalf("queued job after cancel: %s", view.Status)
	}
	release()

	running := postJob(t, ts.URL, ljSpec(t, "t", 2, 5000))
	// Wait until it is visibly underway, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := s.Job(running)
		j.mu.Lock()
		started := len(j.stats) > 0
		j.mu.Unlock()
		if started || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/"+running+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view := waitTerminal(t, ts.URL, running); view.Status != StatusCancelled {
		t.Fatalf("running job after cancel: %s", view.Status)
	}
	// Cancellation is terminal: a restart must not revive it.
	s.Close()
	s2, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j, ok := s2.Job(running)
	if !ok {
		t.Fatal("cancelled job forgotten after restart")
	}
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	if st != StatusCancelled {
		t.Fatalf("cancelled job revived as %s after restart", st)
	}
}

// The NDJSON stream delivers every step live, in order, and closes with
// a terminal status line.
func TestStream(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts.URL, ljSpec(t, "t", 2, 5))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	step := 0
	sawTerminal := false
	for sc.Scan() {
		var line struct {
			Step   *int   `json:"step"`
			Status Status `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if line.Status != "" {
			if line.Status != StatusDone {
				t.Fatalf("terminal stream status %s", line.Status)
			}
			sawTerminal = true
			break
		}
		if line.Step == nil || *line.Step != step {
			t.Fatalf("stream line %q, want step %d", sc.Text(), step)
		}
		step++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTerminal || step != 5 {
		t.Fatalf("stream delivered %d steps (terminal: %t), want 5 + terminal line", step, sawTerminal)
	}
}

// Invalid specs are rejected at admission with 400, unknown jobs with
// 404 — never accepted and failed later.
func TestRejection(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []JobSpec{
		{XYZ: waterXYZ(t, 1), Steps: 3},                                       // no tenant
		{Tenant: "t", Steps: 3},                                               // no geometry
		{Tenant: "t", XYZ: waterXYZ(t, 1)},                                    // no steps
		{Tenant: "t", XYZ: "not xyz at all", Steps: 3},                        // unparsable
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, Potential: "mystery"},    // unknown potential
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, AtomsPerMonomer: -1},     // bad fragmentation
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, DtFs: -0.5},              // bad dt
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, BoxA: []float64{10, 10}}, // wrong edge count
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, BoxA: []float64{-10}},    // non-positive edge
		{Tenant: "t", XYZ: waterXYZ(t, 1), Steps: 3, DimerCutA: -1},           // negative cutoff
	}
	for i, spec := range bad {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// A job's worker count is bounded by the host: one tenant asking for a
// billion workers is a 400 naming the bound, not a billion goroutines.
// The bound itself is admitted and runs.
func TestWorkersAboveGOMAXPROCSRejected(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	most := runtime.GOMAXPROCS(0)
	for _, workers := range []int{most + 1, 1_000_000_000} {
		spec := ljSpec(t, "greedy", 2, 1)
		spec.Workers = workers
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("workers %d: status %d, want 400", workers, resp.StatusCode)
		}
		if want := fmt.Sprintf("at most %d", most); !strings.Contains(apiErr.Error, want) {
			t.Errorf("workers %d: error %q does not name the bound (%q)", workers, apiErr.Error, want)
		}
	}
	spec := ljSpec(t, "greedy", 2, 1)
	spec.Workers = most
	if view := waitTerminal(t, ts.URL, postJob(t, ts.URL, spec)); view.Status != StatusDone {
		t.Errorf("workers = GOMAXPROCS: job ended %s (%s), want done", view.Status, view.Error)
	}
}

// serve can front a netcoord worker fleet: the evaluations run in a
// worker process (here a goroutine) and the trajectory still matches
// the serial reference. Mismatched physics is rejected at admission.
func TestFleetMode(t *testing.T) {
	fleetEval := potential.Spec{Potential: "lj", Basis: "sto-3g"}
	c, err := netcoord.Listen("127.0.0.1:0", netcoord.CoordinatorOptions{Eval: fleetEval})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go netcoord.RunWorker(ctx, c.Addr(), netcoord.WorkerOptions{Slots: 1, Redial: -1})

	s, err := New(Options{
		StateDir: t.TempDir(), CheckpointEvery: 2,
		Coordinator: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(JobSpec{Tenant: "t", XYZ: waterXYZ(t, 2), Steps: 2, Potential: "hf"}); err == nil {
		t.Fatal("job with non-fleet potential admitted")
	}

	ref := serialEnergies(t, ljSpec(t, "ref", 2, 4))
	ids := []string{
		postJob(t, ts.URL, ljSpec(t, "a", 2, 4)),
		postJob(t, ts.URL, ljSpec(t, "b", 2, 4)),
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
		assertTrajectory(t, fetchResult(t, ts.URL, id), ref, 1e-10)
	}
}

// The warm-start pool fingerprint treats boundary conditions as part of
// the system identity: a periodic job never shares a cache pool with an
// open-boundary job over the same atoms, two periodic jobs share only
// when their cells match exactly, and a single cubic edge is the same
// cell as its three-edge spelling.
func TestFingerprintSeparatesBoundaryConditions(t *testing.T) {
	fp := func(sp JobSpec) string {
		t.Helper()
		if err := sp.normalize(); err != nil {
			t.Fatal(err)
		}
		f, err := sp.system()
		if err != nil {
			t.Fatal(err)
		}
		return sp.fingerprint(f.Geom)
	}
	open := ljSpec(t, "t", 2, 1)
	cubic := ljSpec(t, "t", 2, 1)
	cubic.BoxA = []float64{20}
	cubicLong := ljSpec(t, "t", 2, 1)
	cubicLong.BoxA = []float64{20, 20, 20}
	rect := ljSpec(t, "t", 2, 1)
	rect.BoxA = []float64{20, 20, 25}

	if fp(open) == fp(cubic) {
		t.Error("periodic job shares a fingerprint with an open-boundary job")
	}
	if fp(cubic) == fp(rect) {
		t.Error("different cells share a fingerprint")
	}
	if fp(cubic) != fp(cubicLong) {
		t.Error("cubic cell fingerprint depends on its spelling")
	}
}
