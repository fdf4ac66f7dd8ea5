package resilience

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

func testState(t *testing.T) *md.State {
	t.Helper()
	s := md.NewState(molecule.WaterCluster(2))
	s.SampleVelocities(200, rand.New(rand.NewSource(3)))
	return s
}

// Save∘Load is the identity on the trajectory state, including the
// warm-start cache with its electronic-state matrices.
func TestCheckpointRoundTrip(t *testing.T) {
	s := testState(t)
	ck := Snapshot(s, 7, 20.0)
	ck.TotalSteps = 12
	ck.Seed = 42
	ck.Thermostat = &ThermostatState{TargetK: 300, TauFs: 50}

	cache := warmstart.NewCache()
	g := s.Geom
	st := &warmstart.State{
		D:     linalg.NewMatFrom(2, 2, []float64{1, 2, 3, 4}),
		C:     linalg.NewMatFrom(2, 2, []float64{5, 6, 7, 8}),
		Basis: "sto-3g", NBf: 2, NAux: 7, NOcc: 1, SCFIters: 9,
	}
	st.Snapshot(g)
	cache.Put("0-1", st)
	bare := &warmstart.State{}
	bare.Snapshot(g)
	cache.Put("0", bare)
	ck.AttachCache(cache)

	path := filepath.Join(t.TempDir(), "traj.ckpt")
	if err := Save(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.StepsDone != 7 || got.TotalSteps != 12 || got.Dt != 20.0 || got.Seed != 42 {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.Thermostat == nil || got.Thermostat.TargetK != 300 {
		t.Errorf("thermostat lost: %+v", got.Thermostat)
	}
	rs, err := got.State()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Geom.N() != s.Geom.N() {
		t.Fatalf("restored %d atoms, want %d", rs.Geom.N(), s.Geom.N())
	}
	for i := range s.Geom.Atoms {
		if rs.Geom.Atoms[i].Z != s.Geom.Atoms[i].Z {
			t.Fatalf("atom %d Z mismatch", i)
		}
		for k := 0; k < 3; k++ {
			if rs.Geom.Atoms[i].Pos[k] != s.Geom.Atoms[i].Pos[k] {
				t.Fatalf("atom %d position component %d not bit-identical", i, k)
			}
			if rs.Vel[i][k] != s.Vel[i][k] {
				t.Fatalf("atom %d velocity component %d not bit-identical", i, k)
			}
		}
		if rs.Masses[i] != s.Masses[i] {
			t.Fatalf("atom %d mass mismatch", i)
		}
	}
	if !got.Matches(s.Geom) {
		t.Error("Matches rejected the source geometry")
	}

	restored := warmstart.NewCache()
	if err := got.RestoreCache(restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored cache has %d entries, want 2", restored.Len())
	}
	back := restored.Export()["0-1"]
	if back == nil || back.SCFIters != 9 || back.Basis != "sto-3g" || back.NAux != 7 || !back.Compatible(g) {
		t.Fatalf("warm state mangled: %+v", back)
	}
	if back.D == nil || back.D.At(1, 0) != 3 || back.C.At(0, 1) != 6 {
		t.Error("electronic-state matrices mangled")
	}

	t.Run("ParentFormat", testCheckpointParentFormat)
}

// parentCheckpoint is a checkpoint file as builds with skip reuse wrote
// it: every warm entry also carries the geometry ("pos"), energy and
// gradient it was computed at. The second entry's "pos" is short of
// 3·len(zs), which the skip path would have indexed out of range on
// its first lookup. The CRC is valid.
func parentCheckpoint() []byte {
	payload := `{"steps_done":3,"total_steps":6,"dt":20,` +
		`"atomic_numbers":[8,1,1],"pos":[0,0,0,1.4,0,1.1,-1.4,0,1.1],` +
		`"vel":[0,0,0,1e-4,0,0,-1e-4,0,0],"masses":[29156.9,1837.4,1837.4],` +
		`"warm":[` +
		`{"key":"0","zs":[8,1,1],"pos":[0,0,0,1.4,0,1.1,-1.4,0,1.1],"energy":-74.96,` +
		`"grad":[0.1,0,0,-0.05,0,0,-0.05,0,0],` +
		`"d":{"rows":2,"cols":2,"data":[1,2,3,4]},"c":{"rows":2,"cols":2,"data":[5,6,7,8]},` +
		`"basis":"sto-3g","nbf":2,"naux":7,"nocc":1,"scf_iters":9},` +
		`{"key":"1","zs":[8,1,1],"pos":[0,0],"energy":-0.5}]}`
	blob, err := json.Marshal(envelope{Magic: checkpointMagic, Schema: SchemaVersion,
		CRC32C: crc32.Checksum([]byte(payload), castagnoli), Payload: json.RawMessage(payload)})
	if err != nil {
		panic(err)
	}
	return blob
}

// A checkpoint written before the skip path was removed still loads and
// restores every warm entry with its electronic state intact.
func testCheckpointParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(path, parentCheckpoint(), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.StepsDone != 3 || len(ck.Warm) != 2 {
		t.Fatalf("loaded %d steps and %d warm entries, want 3 and 2", ck.StepsDone, len(ck.Warm))
	}
	s, err := ck.State()
	if err != nil {
		t.Fatal(err)
	}
	cache := warmstart.NewCache()
	if err := ck.RestoreCache(cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("restored %d entries, want 2", cache.Len())
	}
	st := cache.Guess("0", s.Geom)
	if st == nil || st.D == nil || st.D.At(1, 0) != 3 || st.C == nil || st.C.At(0, 1) != 6 ||
		st.NBf != 2 || st.NOcc != 1 {
		t.Fatalf("warm entry 0 lost its electronic state: %+v", st)
	}
	if cache.Guess("1", s.Geom) == nil {
		t.Error("warm entry 1 (short pos) not served as a guess")
	}
}

// A periodic trajectory's cell survives the checkpoint round trip
// bit-identically, and Matches treats the boundary conditions as part
// of the system identity: a periodic checkpoint never restores into an
// open-boundary run (or a differently-sized box) and vice versa.
func TestCheckpointPeriodicCell(t *testing.T) {
	g := molecule.WaterBox(2, 2, 2, 1)
	s := md.NewState(g)
	s.SampleVelocities(150, rand.New(rand.NewSource(5)))

	path := filepath.Join(t.TempDir(), "box.ckpt")
	if err := Save(path, Snapshot(s, 3, 20.0)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := got.State()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Geom.Cell == nil {
		t.Fatal("restored geometry lost its periodic cell")
	}
	for k := 0; k < 3; k++ {
		if rs.Geom.Cell.L[k] != g.Cell.L[k] {
			t.Fatalf("cell edge %d: restored %v, want %v", k, rs.Geom.Cell.L[k], g.Cell.L[k])
		}
	}
	if !got.Matches(g) {
		t.Error("Matches rejected the source periodic geometry")
	}
	open := g.Clone()
	open.Cell = nil
	if got.Matches(open) {
		t.Error("periodic checkpoint matched an open-boundary geometry")
	}
	resized := g.Clone()
	resized.Cell.L[0] *= 2
	if got.Matches(resized) {
		t.Error("periodic checkpoint matched a differently-sized cell")
	}

	// And the other direction: an open checkpoint never restores into a
	// periodic run.
	openCk := Snapshot(md.NewState(open), 0, 20.0)
	if openCk.Matches(g) {
		t.Error("open checkpoint matched a periodic geometry")
	}

	// A corrupted cell (wrong edge count / non-positive edge) is refused
	// as corruption, not silently accepted.
	bad := Snapshot(s, 0, 20.0)
	bad.Cell = []float64{1, 2}
	if _, err := bad.State(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("2-edge cell accepted: %v", err)
	}
	bad.Cell = []float64{1, -2, 3}
	if _, err := bad.State(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("negative cell edge accepted: %v", err)
	}
}

// A flipped payload byte is caught by the checksum, not trusted.
func TestCheckpointCorruptionDetected(t *testing.T) {
	s := testState(t)
	path := filepath.Join(t.TempDir(), "traj.ckpt")
	if err := Save(path, Snapshot(s, 1, 20.0)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	// Tamper inside the still-valid-JSON payload: change one digit.
	tampered := strings.Replace(string(env.Payload), `"steps_done":1`, `"steps_done":2`, 1)
	if tampered == string(env.Payload) {
		t.Fatal("tamper target not found in payload")
	}
	env.Payload = json.RawMessage(tampered)
	blob, err = json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered checkpoint loaded: %v", err)
	}

	// Truncation is also corruption, not a decode panic.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated checkpoint loaded: %v", err)
	}
}

// A checkpoint from a future schema is refused with a clear message,
// and non-checkpoint files are refused as corrupt.
func TestCheckpointVersionAndMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.ckpt")
	payload := json.RawMessage(`{}`)
	blob, _ := json.Marshal(envelope{Magic: checkpointMagic, Schema: SchemaVersion + 1,
		CRC32C: 0, Payload: payload})
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future schema: got %v, want a schema error", err)
	}
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(other); !errors.Is(err, ErrCorrupt) {
		t.Errorf("foreign JSON: got %v, want ErrCorrupt", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.ckpt")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file: got %v, want a plain I/O error", err)
	}
}

// Save is atomic: overwriting an existing checkpoint leaves no
// temporary droppings and the old file is replaced wholesale.
func TestCheckpointSaveAtomicOverwrite(t *testing.T) {
	s := testState(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "traj.ckpt")
	if err := Save(path, Snapshot(s, 1, 20.0)); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, Snapshot(s, 2, 20.0)); err != nil {
		t.Fatal(err)
	}
	ck, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.StepsDone != 2 {
		t.Errorf("StepsDone = %d, want the second save's 2", ck.StepsDone)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries, want 1 (no temp files left)", len(entries))
	}
}

// State() validates dimensions instead of panicking on corrupt data:
// absent masses take the documented default, but masses or a gradient
// that are present with the wrong length, or a non-finite force entry,
// are corruption, never silently replaced or dropped.
func TestCheckpointStateValidation(t *testing.T) {
	ck := &Checkpoint{Zs: []int{1, 8}, Pos: make([]float64, 6), Vel: make([]float64, 3)}
	if _, err := ck.State(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mismatched velocity length: got %v, want ErrCorrupt", err)
	}
	if (&Checkpoint{}).Matches(molecule.Water()) {
		t.Error("empty checkpoint matched a real geometry")
	}
	water := func() *Checkpoint {
		return &Checkpoint{Zs: []int{8, 1, 1}, Pos: make([]float64, 9), Vel: make([]float64, 9)}
	}
	s, err := water().State()
	if err != nil {
		t.Fatal(err)
	}
	if std := md.NewState(s.Geom).Masses; s.Masses[0] != std[0] || s.Masses[2] != std[2] || s.Forces != nil {
		t.Errorf("no masses or forces recorded: masses %v (standard %v), forces %v", s.Masses, std, s.Forces)
	}
	for name, mangle := range map[string]func(*Checkpoint){
		"2 masses for 3 atoms": func(ck *Checkpoint) { ck.Masses = []float64{1, 2} },
		"empty masses":         func(ck *Checkpoint) { ck.Masses = []float64{} },
		"short gradient":       func(ck *Checkpoint) { ck.Grad = make([]float64, 8) },
		"empty gradient":       func(ck *Checkpoint) { ck.Grad = []float64{} },
		"NaN gradient":         func(ck *Checkpoint) { ck.Grad = make([]float64, 9); ck.Grad[3] = math.NaN() },
		"infinite energy":      func(ck *Checkpoint) { ck.Grad, ck.Epot = make([]float64, 9), math.Inf(-1) },
	} {
		ck := water()
		mangle(ck)
		if s, err := ck.State(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got state %v, error %v; want ErrCorrupt", name, s, err)
		}
	}
}

// Schema 3 carries the forces at the saved positions: Snapshot records
// them only when they were taken there, and State restores them as
// forces at the restored positions.
func TestCheckpointCarriesForces(t *testing.T) {
	s := testState(t)
	n := 3 * s.Geom.N()
	at := make([]float64, 0, n)
	for _, a := range s.Geom.Atoms {
		at = append(at, a.Pos[:]...)
	}
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = float64(i) - 0.25
	}
	s.Forces = &md.Forces{Epot: -152.5, Grad: grad, At: at}
	path := filepath.Join(t.TempDir(), "traj.ckpt")
	if err := Save(path, Snapshot(s, 4, 20.0)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := got.State()
	if err != nil {
		t.Fatal(err)
	}
	f := rs.ForcesHere()
	if f == nil || f.Epot != -152.5 || len(f.Grad) != n || f.Grad[n-1] != grad[n-1] {
		t.Fatalf("restored forces %+v, want the saved ones at the restored positions", rs.Forces)
	}

	moved := s.Clone()
	moved.Geom.Atoms[0].Pos[1] += 0.5
	if ck := Snapshot(moved, 4, 20.0); ck.Grad != nil {
		t.Error("forces taken at other positions were recorded")
	}
}

// The deterministic injector: same seed, same decisions; different
// seeds decorrelate; probabilities land near their targets; explicit
// worker deaths fire exactly at their threshold.
func TestFailureInjectorDeterminismAndRates(t *testing.T) {
	fi, err := NewFailureInjector(InjectOptions{Seed: 9, TaskFailProb: 0.3,
		WorkerDeathProb: 0.1, StragglerProb: 0.2, StragglerFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	fi2, _ := NewFailureInjector(InjectOptions{Seed: 9, TaskFailProb: 0.3,
		WorkerDeathProb: 0.1, StragglerProb: 0.2, StragglerFactor: 4})
	fails, deaths, slows := 0, 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		f := fi.FailTask(int32(i%977), int32(i/977), i%3)
		if f != fi2.FailTask(int32(i%977), int32(i/977), i%3) {
			t.Fatal("same seed, different FailTask decision")
		}
		if f {
			fails++
		}
		if fi.WorkerDies(i%64, i/64) {
			deaths++
		}
		if fi.Straggle(i%64, int32(i%977), int32(i/977)) > 1 {
			slows++
		}
	}
	check := func(name string, got int, p float64) {
		t.Helper()
		f := float64(got) / n
		if math.Abs(f-p) > 0.02 {
			t.Errorf("%s rate %.3f, want ≈ %.2f", name, f, p)
		}
	}
	check("task failure", fails, 0.3)
	check("worker death", deaths, 0.1)
	check("straggler", slows, 0.2)

	// Explicit deaths.
	fx, _ := NewFailureInjector(InjectOptions{DeadWorkers: map[int]int{2: 5}})
	if fx.WorkerDies(2, 4) || !fx.WorkerDies(2, 5) || fx.WorkerDies(1, 100) {
		t.Error("DeadWorkers threshold wrong")
	}

	// A nil injector is inert (the disabled path in both backends).
	var ni *FailureInjector
	if ni.FailTask(0, 0, 0) || ni.WorkerDies(0, 0) || ni.Straggle(0, 0, 0) != 1 {
		t.Error("nil injector not inert")
	}
}

func TestFailureInjectorValidation(t *testing.T) {
	if _, err := NewFailureInjector(InjectOptions{TaskFailProb: 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := NewFailureInjector(InjectOptions{StragglerFactor: 0.5}); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	fi, err := NewFailureInjector(InjectOptions{StragglerProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Straggle(0, 0, 0); got != 8 {
		t.Errorf("default straggler factor = %g, want 8", got)
	}
	if fi.Options().StragglerFactor != 8 {
		t.Error("Options does not reflect the filled default")
	}
}
