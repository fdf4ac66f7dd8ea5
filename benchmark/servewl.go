package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/serve"
)

const (
	serveName       = "serve-lj-chunked"
	serveClients    = 2 // closed loop: a client submits its next job when the last one ended
	serveTenants    = 4
	serveBox        = 3 // WaterBox edge of the job system, in molecules
	jobSteps        = 20
	checkpointEvery = 5
	dimerCutA       = 5.0
	trimerCutA      = 4.0
)

// serveSystem is the serve workload after set-up: an in-process server
// behind an httptest listener, and the serial oracle for its jobs.
type serveSystem struct {
	dir    string
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	spec   serve.JobSpec      // template; tenant and seed vary per job
	geom   *molecule.Geometry // the job system as the server parses it
	frag   *fragment.Fragmentation
	epot0  float64
	drift  float64 // bound on |Etot(last) − Etot(0)|
	tenant []int   // seeded tenant of job i (mod len)
	next   atomic.Int64
}

func setupServe(cfg config) (*serveSystem, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	s := &serveSystem{drift: ref.LJJobDriftBoundHa}
	var xyz strings.Builder
	if err := molecule.WaterBox(serveBox, serveBox, serveBox, boxSeed).WriteXYZ(&xyz); err != nil {
		return nil, err
	}
	s.spec = serve.JobSpec{
		XYZ: xyz.String(), Potential: "lj", Steps: jobSteps, DtFs: dtFs, TempK: temperature,
		AtomsPerMonomer: atomsPerMol, DimerCutA: dimerCutA, TrimerCutA: trimerCutA,
	}
	// The oracle sees the geometry the way the server does — through
	// the XYZ text — so the comparison is not limited by print precision.
	if s.geom, err = molecule.ParseXYZ(strings.NewReader(s.spec.XYZ)); err != nil {
		return nil, err
	}
	s.frag, err = fragment.ByMolecule(s.geom, atomsPerMol, 1, fragment.Options{
		DimerCutoff: dimerCutA * chem.BohrPerAngstrom, TrimerCutoff: trimerCutA * chem.BohrPerAngstrom,
	})
	if err != nil {
		return nil, err
	}
	oracle, err := s.frag.Compute(&potential.LennardJones{})
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	s.epot0 = oracle.Energy
	rng := rand.New(rand.NewSource(cfg.seed))
	s.tenant = make([]int, 4096)
	for i := range s.tenant {
		s.tenant[i] = rng.Intn(serveTenants)
	}

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(cfg.workDir, "serve-state-"); err != nil {
		return nil, err
	}
	s.srv, err = serve.New(serve.Options{StateDir: s.dir, MaxActive: workers, CheckpointEvery: checkpointEvery})
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.hs = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Warm-up: one job through the whole path.
	if _, err := s.runJob(cfg.seed, 0); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return s, nil
}

// close shuts the listener, then the server, then removes the state
// directory, and confirms that nothing is left behind.
func (s *serveSystem) close() error {
	addr := s.hs.Listener.Addr().String()
	s.client.CloseIdleConnections()
	s.hs.Close()
	err := s.srv.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return err
	}
	if c, dialErr := net.DialTimeout("tcp", addr, time.Second); dialErr == nil {
		c.Close()
		return fmt.Errorf("listener %s still accepts connections after close", addr)
	}
	return nil
}

// jobTiming is what a client saw of one job.
type jobTiming struct {
	id                            string
	client                        int
	posted, accepted, first, done time.Time
}

func (t jobTiming) latency() float64 { return t.done.Sub(t.posted).Seconds() }

// runJob submits job number i and follows its stream to the terminal
// line, checking everything the server reports on the way.
func (s *serveSystem) runJob(seed int64, i int) (jobTiming, error) {
	var t jobTiming
	spec := s.spec
	spec.Tenant = fmt.Sprintf("tenant-%d", s.tenant[i%len(s.tenant)])
	spec.Seed = seed*100003 + int64(i) + 1
	body, err := json.Marshal(spec)
	if err != nil {
		return t, err
	}
	t.posted = time.Now()
	resp, err := s.client.Post(s.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	t.accepted = time.Now()
	if resp.StatusCode != http.StatusCreated {
		return t, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	t.id = view.ID

	resp, err = s.client.Get(s.hs.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	var records []serve.StepRecord
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		now := time.Now()
		var line struct {
			serve.StepRecord
			Status serve.Status `json:"status"`
			Error  string       `json:"error"`
		}
		if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
			return t, fmt.Errorf("stream line %q: %w", lines.Text(), err)
		}
		if line.Status == "" {
			if len(records) == 0 {
				t.first = now
			}
			records = append(records, line.StepRecord)
			continue
		}
		t.done = now
		if line.Status != serve.StatusDone {
			return t, fmt.Errorf("job %s ended %s: %s", view.ID, line.Status, line.Error)
		}
		return t, s.checkRecords(records)
	}
	if err := lines.Err(); err != nil {
		return t, err
	}
	return t, fmt.Errorf("job %s: stream ended without a terminal line", view.ID)
}

// checkRecords applies the per-job gates: every step reported once, in
// order; step 0 matches the serial oracle; bounded drift.
func (s *serveSystem) checkRecords(records []serve.StepRecord) error {
	if len(records) != jobSteps {
		return fmt.Errorf("%d step records, want %d", len(records), jobSteps)
	}
	for i, r := range records {
		if r.Step != i {
			return fmt.Errorf("record %d carries step %d", i, r.Step)
		}
	}
	if d := math.Abs(records[0].Epot - s.epot0); !(d <= 1e-10*math.Max(1, math.Abs(s.epot0))) {
		return fmt.Errorf("step-0 Epot differs from the serial oracle by %.3g Ha", d)
	}
	if d := math.Abs(records[len(records)-1].Etot - records[0].Etot); !(d <= s.drift) {
		return fmt.Errorf("|drift| %.3g Ha exceeds the bound %.1g", d, s.drift)
	}
	return nil
}

// serveLoad is one closed-loop load phase.
type serveLoad struct {
	timings  []jobTiming // completed jobs
	failed   int
	wall     float64
	firstErr error
}

func (l *serveLoad) latencies() []float64 {
	out := make([]float64, len(l.timings))
	for i, t := range l.timings {
		out[i] = t.latency()
	}
	return out
}

// load runs the closed-loop clients until jobs have been submitted or
// the time budget is spent (no new job starts after it), whichever
// comes first; zero means no limit of that kind.
func (s *serveSystem) load(seed int64, budget time.Duration, jobs int) *serveLoad {
	l := &serveLoad{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var started atomic.Int64
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if jobs > 0 && started.Add(1) > int64(jobs) {
					return
				}
				if budget > 0 && time.Since(start) >= budget {
					return
				}
				t, err := s.runJob(seed, int(s.next.Add(1)))
				t.client = c
				mu.Lock()
				if err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
				} else {
					l.timings = append(l.timings, t)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	l.wall = time.Since(start).Seconds()
	return l
}

func runServe(cfg config) (*outcome, error) {
	var sys *serveSystem
	setups := make([]float64, cfg.size.setupReps)
	for i := range setups {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if sys, err = setupServe(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	out, err := sys.measure(cfg, median(setups))
	if closeErr := sys.close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, err
	}
	out.samples["setup_s"] = len(setups)
	return out, nil
}

func (s *serveSystem) measure(cfg config, setupS float64) (*outcome, error) {
	// Both the untraced and the traced load get this budget.
	budget := time.Duration(cfg.seconds * cfg.plainShare() * float64(time.Second))
	plain := s.load(cfg.seed, budget, cfg.size.jobs)
	if len(plain.timings) == 0 {
		return nil, fmt.Errorf("no job completed: %v", plain.firstErr)
	}
	out := &outcome{
		endToEnd: values{
			"setup_s":   setupS,
			"op_s":      median(plain.latencies()),
			"ops_per_s": float64(len(plain.timings)) / plain.wall,
		},
		samples:   map[string]int{"op_s": len(plain.timings)},
		attempted: len(plain.timings) + plain.failed,
		failed:    plain.failed,
		failure:   plain.firstErr,
	}
	if !cfg.trace || plain.failed > 0 {
		return out, nil
	}

	before := readUsage()
	rec := newRecorder()
	root := rec.open("run", -1, serveName)
	jobs := cfg.size.maxTraced
	if cfg.size.jobs > 0 {
		jobs = min(jobs, cfg.size.jobs)
	}
	tracedLoad := s.load(cfg.seed, budget, jobs)
	if tracedLoad.failed > 0 || len(tracedLoad.timings) == 0 {
		return nil, fmt.Errorf("traced run: %d jobs failed: %v", tracedLoad.failed, tracedLoad.firstErr)
	}
	allocMB, gcFrac := before.since()
	var submit, first, run, accepted []float64
	for _, t := range tracedLoad.timings {
		job := rec.add("serve.job", t.posted, t.done, root, t.client, t.id)
		rec.add("serve.submit", t.posted, t.accepted, job, t.client, t.id)
		rec.add("serve.first_chunk", t.accepted, t.first, job, t.client, t.id)
		rec.add("serve.run", t.first, t.done, job, t.client, t.id)
		submit = append(submit, t.accepted.Sub(t.posted).Seconds())
		first = append(first, t.first.Sub(t.accepted).Seconds())
		run = append(run, t.done.Sub(t.first).Seconds())
		accepted = append(accepted, t.done.Sub(t.accepted).Seconds())
	}
	pl := values{
		"trace.overhead_frac":       median(tracedLoad.latencies())/median(plain.latencies()) - 1,
		"serve.job_p90_s":           p90(plain.latencies()),
		"serve.submit_s":            median(submit),
		"serve.first_chunk_s":       median(first),
		"serve.run_s":               median(run),
		"serve.chunks_per_job":      math.Ceil(float64(jobSteps) / checkpointEvery),
		"runtime.alloc_mb_per_step": allocMB / float64(len(tracedLoad.timings)*jobSteps),
		"runtime.gc_cpu_frac":       gcFrac,
	}
	rp := rec.open("replay", root, serveName)
	err := s.replay(rec, rp, cfg, pl, median(accepted))
	rec.close(rp)
	rec.close(root)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	out.perLayer = pl
	out.samples["serve.job_p90_s"] = len(plain.timings)
	out.spanFile = filepath.Join(cfg.traceDir, serveName+".spans.json")
	return out, rec.writeFile(out.spanFile, serveName, cfg.seed)
}

// replay measures what the server adds to a job: the same trajectory
// straight through sched.Engine with no chunks and no checkpoints, and
// the checkpoint write/read on its own.
func (s *serveSystem) replay(rec *recorder, parent int, cfg config, pl values, acceptedToDone float64) error {
	// Two trajectories at a time, because the server runs two jobs at a
	// time: the ratio then isolates serving and chunking from plain
	// competition for the two cores.
	const directRounds, ckReps = 10, 50
	opts := sched.Options{Workers: 1, Async: true, Dt: dtFs * chem.AtomicTimePerFs}
	state := md.NewState(s.geom.Clone())
	state.SampleVelocities(temperature, rand.New(rand.NewSource(cfg.seed)))
	var direct []float64
	for round := 0; round < directRounds; round++ {
		var wg sync.WaitGroup
		starts, ends, errs := make([]time.Time, workers), make([]time.Time, workers), make([]error, workers)
		for lane := 0; lane < workers; lane++ {
			eng, err := sched.New(s.frag, &potential.LennardJones{}, opts)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				starts[lane] = time.Now()
				_, errs[lane] = eng.Run(state.Clone(), jobSteps, nil)
				ends[lane] = time.Now()
			}(lane)
		}
		wg.Wait()
		for lane := range errs {
			if errs[lane] != nil {
				return errs[lane]
			}
			rec.add("sched.direct_run", starts[lane], ends[lane], parent, lane, serveName)
			direct = append(direct, ends[lane].Sub(starts[lane]).Seconds())
		}
	}
	pl["serve.chunk_overhead_ratio"] = acceptedToDone / median(direct)

	path := filepath.Join(s.dir, "replay.ck")
	var save, load []float64
	for i := 0; i < ckReps; i++ {
		var err error
		save = append(save, rec.time("resilience.save", parent, serveName, func() {
			err = resilience.Save(path, resilience.Snapshot(state, checkpointEvery, opts.Dt))
		}))
		if err != nil {
			return err
		}
		load = append(load, rec.time("resilience.load", parent, serveName, func() { _, err = resilience.Load(path) }))
		if err != nil {
			return err
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	pl["resilience.save_s"] = median(save)
	pl["resilience.load_s"] = median(load)
	pl["resilience.save_bytes"] = float64(info.Size())
	return os.Remove(path)
}
