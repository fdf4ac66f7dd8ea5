package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/serve"
)

// ServeBenchSchema identifies the BENCH_serve.json layout; bump on
// incompatible changes so the CI comparator can refuse stale baselines.
const ServeBenchSchema = "fragmd-bench-serve/v1"

// ServeBenchReport is the machine-readable output of the trajectory-
// server load test — the service latency/throughput/fairness record
// the CI serve job gates against, the way BENCH_gemm.json gates the
// kernels.
type ServeBenchReport struct {
	ReportHeader

	// Load-phase shape: Jobs small LJ trajectories of StepsPerJob steps
	// spread round-robin over Tenants tenants, MaxActive running at once.
	Jobs        int `json:"jobs"`
	Tenants     int `json:"tenants"`
	StepsPerJob int `json:"steps_per_job"`
	MaxActive   int `json:"max_active"`

	// Load-phase results. Latency is submit→terminal wall time per job
	// (queue wait included — it is a service-level number), throughput
	// the completed-jobs rate over the whole phase, and FairnessRatio
	// the worst max/min per-tenant completed-job ratio observed while
	// the run was 25–75 % complete (1.0 = perfectly fair; the absolute
	// gate is ≤ 2).
	WallSeconds   float64 `json:"wall_seconds"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	FairnessRatio float64 `json:"fairness_ratio"`

	// Drain-phase results: a second server is SIGTERM'd mid-burst
	// (Drain + Close), restarted on the same state directory, and every
	// job audited. Lost (admitted but never completed) and Duplicated
	// (a step reported twice or skipped) must both be zero.
	DrainInterrupted int `json:"drain_interrupted"`
	DrainResumed     int `json:"drain_resumed"`
	DrainLost        int `json:"drain_lost"`
	DrainDuplicated  int `json:"drain_duplicated"`
}

// CompareServeReports checks current against baseline: tracked service
// numbers may not regress more than maxRegressPct percent — latency up
// (p50, p99) or throughput down. Fairness and drain integrity are
// absolute in-run gates (ServeBench applies them), not baseline-
// relative. It returns one message per violation; empty means OK.
func CompareServeReports(baseline, current *ServeBenchReport, maxRegressPct float64) []string {
	var bad []string
	tol := 1 + maxRegressPct/100
	if baseline.P50Ms > 0 && current.P50Ms > baseline.P50Ms*tol {
		bad = append(bad, fmt.Sprintf("p50 latency regressed: %.1f ms > ceiling %.1f (baseline %.1f, tolerance %.0f%%)",
			current.P50Ms, baseline.P50Ms*tol, baseline.P50Ms, maxRegressPct))
	}
	if baseline.P99Ms > 0 && current.P99Ms > baseline.P99Ms*tol {
		bad = append(bad, fmt.Sprintf("p99 latency regressed: %.1f ms > ceiling %.1f (baseline %.1f, tolerance %.0f%%)",
			current.P99Ms, baseline.P99Ms*tol, baseline.P99Ms, maxRegressPct))
	}
	floor := baseline.JobsPerSec * (1 - maxRegressPct/100)
	if baseline.JobsPerSec > 0 && current.JobsPerSec < floor {
		bad = append(bad, fmt.Sprintf("throughput regressed: %.1f jobs/s < floor %.1f (baseline %.1f, tolerance %.0f%%)",
			current.JobsPerSec, floor, baseline.JobsPerSec, maxRegressPct))
	}
	return bad
}

// serveBenchClient is the HTTP load generator: every interaction with
// the server under test goes over a real localhost TCP listener, so
// the measured latency includes the full serving stack.
type serveBenchClient struct {
	base   string
	client *http.Client
	sem    chan struct{} // caps in-flight requests (file descriptors)
}

func (c *serveBenchClient) do(req *http.Request) (*http.Response, error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	return c.client.Do(req)
}

// submit POSTs one job and returns its server-assigned ID.
func (c *serveBenchClient) submit(spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest("POST", c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := c.do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return view.ID, nil
}

// view GETs one job's current projection.
func (c *serveBenchClient) view(id string) (serve.JobView, error) {
	req, err := http.NewRequest("GET", c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return serve.JobView{}, err
	}
	return v, nil
}

// result GETs one job's full stats payload.
func (c *serveBenchClient) result(id string) (serve.JobResult, error) {
	req, err := http.NewRequest("GET", c.base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return serve.JobResult{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return serve.JobResult{}, err
	}
	defer resp.Body.Close()
	var r serve.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return serve.JobResult{}, err
	}
	return r, nil
}

// startServeBench opens a server over dir and serves it on an
// ephemeral localhost port. The returned shutdown closes the listener
// but not the server, so callers control Drain/Close ordering.
func startServeBench(dir string, opts serve.Options) (*serve.Server, *serveBenchClient, func(), error) {
	opts.StateDir = dir
	s, err := serve.New(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	client := &serveBenchClient{
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{},
		sem:    make(chan struct{}, 64),
	}
	return s, client, func() { httpSrv.Close() }, nil
}

// benchJobXYZ is the shared tiny system every load job integrates: a
// water dimer under the LJ surrogate keeps per-job compute in the
// milliseconds so the measurement stresses the serving machinery
// (admission, queueing, durability), not the quantum chemistry.
func benchJobXYZ() string {
	var b strings.Builder
	molecule.WaterCluster(2).WriteXYZ(&b)
	return b.String()
}

// serveBenchLoad runs the load phase: jobs submissions fanned across
// tenants, all completions awaited over HTTP polling.
func serveBenchLoad(c *Config, rep *ServeBenchReport) error {
	dir, err := os.MkdirTemp("", "fragmd-servebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, client, shutdown, err := startServeBench(dir, serve.Options{
		MaxActive: rep.MaxActive, MaxQueued: rep.Jobs + 16,
		CheckpointEvery: rep.StepsPerJob, // one durable chunk per job
	})
	if err != nil {
		return err
	}
	defer shutdown()
	defer s.Close()

	xyz := benchJobXYZ()
	type timing struct {
		id     string
		t0     time.Time
		lat    time.Duration
		status serve.Status
	}
	timings := make([]timing, rep.Jobs)
	start := time.Now()

	// Fairness sampler: poll the per-tenant census and keep the worst
	// completed-jobs imbalance seen in the mid-run window, where every
	// tenant should have work both done and outstanding.
	samplerDone := make(chan struct{})
	var worstRatio float64
	go func() {
		defer close(samplerDone)
		for {
			tenants, _ := s.Stats()
			total, minDone, maxDone := 0, -1, 0
			for _, tc := range tenants {
				total += tc.Done
				if minDone < 0 || tc.Done < minDone {
					minDone = tc.Done
				}
				if tc.Done > maxDone {
					maxDone = tc.Done
				}
			}
			if total >= rep.Jobs {
				return
			}
			if 4*total >= rep.Jobs && 4*total <= 3*rep.Jobs && minDone > 0 {
				if r := float64(maxDone) / float64(minDone); r > worstRatio {
					worstRatio = r
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := range timings {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := serve.JobSpec{
				Tenant: fmt.Sprintf("tenant-%d", i%rep.Tenants),
				XYZ:    xyz, Potential: "lj", Steps: rep.StepsPerJob,
			}
			timings[i].t0 = time.Now()
			id, err := client.submit(spec)
			if err != nil {
				timings[i].status = serve.StatusFailed
				c.fail(fmt.Sprintf("serve: submit %d: %v", i, err))
				return
			}
			timings[i].id = id
			for {
				v, err := client.view(id)
				if err == nil && (v.Status == serve.StatusDone || v.Status == serve.StatusFailed || v.Status == serve.StatusCancelled) {
					timings[i].lat = time.Since(timings[i].t0)
					timings[i].status = v.Status
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()
	<-samplerDone

	lats := make([]float64, 0, rep.Jobs)
	for i, tm := range timings {
		if tm.status != serve.StatusDone {
			c.fail(fmt.Sprintf("serve: job %d (%s) ended %q, want done", i, tm.id, tm.status))
			continue
		}
		lats = append(lats, float64(tm.lat)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		rep.P50Ms = lats[len(lats)/2]
		rep.P99Ms = lats[len(lats)*99/100]
	}
	rep.JobsPerSec = float64(len(lats)) / rep.WallSeconds
	rep.FairnessRatio = worstRatio
	return nil
}

// serveBenchDrain runs the drain-integrity phase: a burst of longer
// jobs, a mid-burst Drain+Close (the SIGTERM path), a restart on the
// same state directory, and a full audit — no job lost, no step
// duplicated or skipped.
func serveBenchDrain(c *Config, rep *ServeBenchReport) error {
	dir, err := os.MkdirTemp("", "fragmd-servebench-drain-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const jobs, steps = 48, 20
	opts := serve.Options{MaxActive: 4, MaxQueued: jobs + 4, CheckpointEvery: 1}
	s, client, shutdown, err := startServeBench(dir, opts)
	if err != nil {
		return err
	}

	xyz := benchJobXYZ()
	ids := make([]string, jobs)
	for i := range ids {
		if ids[i], err = client.submit(serve.JobSpec{
			Tenant: fmt.Sprintf("tenant-%d", i%rep.Tenants),
			XYZ:    xyz, Potential: "lj", Steps: steps,
		}); err != nil {
			shutdown()
			s.Close()
			return err
		}
	}
	// Let a few jobs finish so the drain lands mid-burst, then pull the
	// plug the way the serve subcommand's SIGTERM handler does.
	for {
		tenants, _ := s.Stats()
		done := 0
		for _, tc := range tenants {
			done += tc.Done
		}
		if done >= 4 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Drain(context.Background()); err != nil {
		shutdown()
		s.Close()
		return err
	}
	doneAtDrain := 0
	tenants, _ := s.Stats()
	for _, tc := range tenants {
		doneAtDrain += tc.Done
	}
	shutdown()
	s.Close()
	rep.DrainInterrupted = jobs - doneAtDrain
	if rep.DrainInterrupted == 0 {
		c.fail("serve: drain landed after every job finished — no interruption exercised")
	}

	// Successor on the same state directory: every parked job resumes.
	s2, client2, shutdown2, err := startServeBench(dir, opts)
	if err != nil {
		return err
	}
	defer shutdown2()
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Minute)
	for _, id := range ids {
		for {
			v, err := client2.view(id)
			if err == nil && v.Status == serve.StatusDone {
				break
			}
			if err == nil && (v.Status == serve.StatusFailed || v.Status == serve.StatusCancelled) {
				c.fail(fmt.Sprintf("serve: job %s ended %q after restart", id, v.Status))
				rep.DrainLost++
				break
			}
			if time.Now().After(deadline) {
				c.fail(fmt.Sprintf("serve: job %s not done after restart (lost work)", id))
				rep.DrainLost++
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	rep.DrainResumed = jobs - doneAtDrain - rep.DrainLost

	// Audit: every job's record must hold exactly steps 0..steps-1.
	for _, id := range ids {
		res, err := client2.result(id)
		if err != nil {
			c.fail(fmt.Sprintf("serve: result %s: %v", id, err))
			continue
		}
		if len(res.Stats) != steps {
			c.fail(fmt.Sprintf("serve: job %s recorded %d steps, want %d", id, len(res.Stats), steps))
			rep.DrainLost++
			continue
		}
		for i, st := range res.Stats {
			if st.Step != i {
				c.fail(fmt.Sprintf("serve: job %s stats[%d].step = %d — duplicated or skipped step", id, i, st.Step))
				rep.DrainDuplicated++
				break
			}
		}
	}
	return nil
}

// ServeBench load-tests the multi-tenant trajectory server end to end
// over real HTTP (DESIGN.md §12): a burst of small concurrent jobs
// across tenants measuring latency, throughput and scheduling
// fairness, then a drain/restart cycle auditing that interrupted work
// is neither lost nor duplicated. Publishes the report
// (BENCH_serve.json, baseline gate).
func ServeBench(c *Config) {
	rep := &ServeBenchReport{
		ReportHeader: newHeader(ServeBenchSchema, c.Quick),
		Jobs:         1000, Tenants: 4, StepsPerJob: 2,
		MaxActive: max(runtime.NumCPU(), 4),
	}
	if !c.Quick {
		rep.Jobs, rep.StepsPerJob = 2000, 3
	}

	c.printf("Trajectory-server load test (DESIGN.md §12): %d LJ jobs × %d steps,\n", rep.Jobs, rep.StepsPerJob)
	c.printf("%d tenants, %d active, submissions and polling over localhost HTTP\n\n", rep.Tenants, rep.MaxActive)
	if err := serveBenchLoad(c, rep); err != nil {
		c.fail(fmt.Sprintf("serve: load phase: %v", err))
		return
	}
	c.printf("  wall           %8.2f s\n", rep.WallSeconds)
	c.printf("  throughput     %8.1f jobs/s\n", rep.JobsPerSec)
	c.printf("  latency p50    %8.1f ms\n", rep.P50Ms)
	c.printf("  latency p99    %8.1f ms\n", rep.P99Ms)
	c.printf("  fairness       %8.2f max/min completed per tenant (mid-run worst; gate ≤ 2)\n", rep.FairnessRatio)
	if rep.FairnessRatio > 2 {
		c.fail(fmt.Sprintf("serve: fairness ratio %.2f exceeds 2 — round-robin admission is not holding", rep.FairnessRatio))
	}

	if err := serveBenchDrain(c, rep); err != nil {
		c.fail(fmt.Sprintf("serve: drain phase: %v", err))
		return
	}
	c.printf("\nDrain/restart audit: %d interrupted, %d resumed, %d lost, %d duplicated\n",
		rep.DrainInterrupted, rep.DrainResumed, rep.DrainLost, rep.DrainDuplicated)
	if rep.DrainLost > 0 || rep.DrainDuplicated > 0 {
		c.fail(fmt.Sprintf("serve: drain integrity: %d lost, %d duplicated (both must be 0)",
			rep.DrainLost, rep.DrainDuplicated))
	}
	c.printf("\nShape to verify: p99 stays within the same order as p50 (admission keeps\n")
	c.printf("queues bounded), per-tenant completions stay within 2× of each other, and\n")
	c.printf("the drain cycle preserves every admitted step exactly once.\n")

	publish(c, rep, CompareServeReports)
}
