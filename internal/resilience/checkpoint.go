package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// SchemaVersion is the checkpoint schema this build writes. Load
// accepts any version up to it (older schemas only add fields) and
// rejects newer ones with a clear error.
//
// History: v1 — initial layout; v2 — adds the optional periodic cell
// (absent in v1 payloads, which decode as open-boundary).
const SchemaVersion = 2

// checkpointMagic identifies a fragmd checkpoint envelope.
const checkpointMagic = "fragmd-checkpoint"

// ErrCorrupt marks a checkpoint whose payload failed its checksum or
// could not be decoded — a truncated write, bit rot, or an unrelated
// file.
var ErrCorrupt = errors.New("resilience: corrupt checkpoint")

// ThermostatState snapshots a Berendsen thermostat so NVT
// equilibration resumes with the same coupling. The NVE engine never
// sets it; callers running md.VelocityVerlet.RunNVT equilibration
// populate it themselves through the exported field.
type ThermostatState struct {
	TargetK float64 `json:"target_k"`
	TauFs   float64 `json:"tau_fs"`
}

// MatState is a serialised dense matrix (row-major, like linalg.Mat).
type MatState struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

func matState(m *linalg.Mat) *MatState {
	if m == nil {
		return nil
	}
	return &MatState{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func (ms *MatState) mat() (*linalg.Mat, error) {
	if ms == nil {
		return nil, nil
	}
	if ms.Rows < 0 || ms.Cols < 0 || len(ms.Data) != ms.Rows*ms.Cols {
		return nil, fmt.Errorf("%w: matrix %dx%d with %d elements", ErrCorrupt, ms.Rows, ms.Cols, len(ms.Data))
	}
	return linalg.NewMatFrom(ms.Rows, ms.Cols, ms.Data), nil
}

// WarmEntry is one polymer's checkpointed warm-start state
// (warmstart.State with the matrices flattened for JSON). Checkpoints
// written by earlier builds also carry "pos", "energy" and "grad" keys
// per entry; decoding ignores them.
type WarmEntry struct {
	Key      string    `json:"key"`
	Zs       []int     `json:"zs"`
	D        *MatState `json:"d,omitempty"`
	C        *MatState `json:"c,omitempty"`
	Basis    string    `json:"basis,omitempty"`
	NBf      int       `json:"nbf,omitempty"`
	NAux     int       `json:"naux,omitempty"`
	NOcc     int       `json:"nocc,omitempty"`
	SCFIters int       `json:"scf_iters,omitempty"`
}

// Checkpoint is a schema-versioned snapshot of a trajectory: the MD
// state (positions, velocities, masses, atomic numbers), the
// integration/RNG metadata needed to continue the run, and optionally
// the warm-start cache so the resumed run keeps its incremental-SCF
// advantage.
type Checkpoint struct {
	// StepsDone counts completed force evaluations: the state sits at
	// trajectory step StepsDone−1, fully integrated. A resumed engine
	// re-evaluates forces at that geometry as its local step 0 (the
	// same boundary semantics as chaining two Engine.Run calls), so
	// energies reproduce the uninterrupted trajectory.
	StepsDone int `json:"steps_done"`
	// TotalSteps is the intended trajectory length (0 = open-ended);
	// resume surfaces a mismatch against the requested length.
	TotalSteps int `json:"total_steps,omitempty"`
	// Dt is the time step in atomic units. Resuming at a different dt
	// breaks trajectory reproduction, so consumers must validate it
	// (cmd/fragmd refuses the mismatch).
	Dt float64 `json:"dt"`
	// Seed records the RNG seed the trajectory's velocities were
	// sampled with — provenance for reproducing the run from scratch;
	// the resumed dynamics itself is deterministic and reads the
	// velocities, not the seed.
	Seed int64 `json:"seed,omitempty"`
	// E0 records the trajectory's step-0 total energy, the baseline of
	// the NVE drift diagnostic, so a resumed run reports drift against
	// the *original* start rather than its own first step. HasE0 marks
	// it valid (pre-E0 checkpoints load with both zero).
	E0    float64 `json:"e0,omitempty"`
	HasE0 bool    `json:"has_e0,omitempty"`

	Zs     []int     `json:"atomic_numbers"`
	Pos    []float64 `json:"pos"` // 3N, Bohr
	Vel    []float64 `json:"vel"` // 3N, atomic units
	Masses []float64 `json:"masses"`
	// Cell holds the orthorhombic box edge lengths in Bohr for a
	// periodic trajectory (empty = open boundaries; schema ≥ 2).
	Cell []float64 `json:"cell,omitempty"`

	Thermostat *ThermostatState `json:"thermostat,omitempty"`
	Warm       []WarmEntry      `json:"warm,omitempty"`
}

// Snapshot captures a trajectory checkpoint from an MD state after
// stepsDone completed force evaluations.
func Snapshot(state *md.State, stepsDone int, dt float64) *Checkpoint {
	n := state.Geom.N()
	ck := &Checkpoint{
		StepsDone: stepsDone,
		Dt:        dt,
		Zs:        make([]int, n),
		Pos:       make([]float64, 3*n),
		Vel:       make([]float64, 3*n),
		Masses:    append([]float64(nil), state.Masses...),
	}
	for i, a := range state.Geom.Atoms {
		ck.Zs[i] = a.Z
		for k := 0; k < 3; k++ {
			ck.Pos[3*i+k] = a.Pos[k]
			ck.Vel[3*i+k] = state.Vel[i][k]
		}
	}
	if c := state.Geom.Cell; c != nil {
		ck.Cell = []float64{c.L[0], c.L[1], c.L[2]}
	}
	return ck
}

// AttachCache records the warm-start cache's states in the checkpoint,
// in deterministic key order so identical runs write identical bytes.
func (ck *Checkpoint) AttachCache(c *warmstart.Cache) {
	if c == nil {
		return
	}
	states := c.Export()
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ck.Warm = ck.Warm[:0]
	for _, k := range keys {
		st := states[k]
		ck.Warm = append(ck.Warm, WarmEntry{
			Key: k, Zs: st.Zs, D: matState(st.D), C: matState(st.C),
			Basis: st.Basis, NBf: st.NBf, NAux: st.NAux, NOcc: st.NOcc,
			SCFIters: st.SCFIters,
		})
	}
}

// State rebuilds the MD state the checkpoint was taken from.
func (ck *Checkpoint) State() (*md.State, error) {
	n := len(ck.Zs)
	if n == 0 || len(ck.Pos) != 3*n || len(ck.Vel) != 3*n {
		return nil, fmt.Errorf("%w: %d atoms with %d positions, %d velocities",
			ErrCorrupt, n, len(ck.Pos), len(ck.Vel))
	}
	g := molecule.New()
	for i, z := range ck.Zs {
		g.AddAtom(z, ck.Pos[3*i], ck.Pos[3*i+1], ck.Pos[3*i+2])
	}
	if len(ck.Cell) != 0 {
		if len(ck.Cell) != 3 {
			return nil, fmt.Errorf("%w: cell has %d edges, want 3", ErrCorrupt, len(ck.Cell))
		}
		cell, err := molecule.NewCell(ck.Cell[0], ck.Cell[1], ck.Cell[2])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		g.Cell = cell
	}
	s := md.NewState(g)
	for i := range s.Vel {
		for k := 0; k < 3; k++ {
			s.Vel[i][k] = ck.Vel[3*i+k]
		}
	}
	if len(ck.Masses) == n {
		copy(s.Masses, ck.Masses)
	}
	return s, nil
}

// Matches reports whether the checkpoint was taken from a system with
// the same atom list (count and atomic numbers, in order) and the same
// boundary conditions (cell edges, or both open) as g.
func (ck *Checkpoint) Matches(g *molecule.Geometry) bool {
	if g.N() != len(ck.Zs) {
		return false
	}
	for i, a := range g.Atoms {
		if a.Z != ck.Zs[i] {
			return false
		}
	}
	if g.Cell == nil {
		return len(ck.Cell) == 0
	}
	if len(ck.Cell) != 3 {
		return false
	}
	for k := 0; k < 3; k++ {
		if ck.Cell[k] != g.Cell.L[k] {
			return false
		}
	}
	return true
}

// RestoreCache installs the checkpoint's warm states into a cache
// (typically the resumed run's fresh one).
func (ck *Checkpoint) RestoreCache(c *warmstart.Cache) error {
	if c == nil || len(ck.Warm) == 0 {
		return nil
	}
	states := make(map[string]*warmstart.State, len(ck.Warm))
	for _, we := range ck.Warm {
		d, err := we.D.mat()
		if err != nil {
			return fmt.Errorf("warm entry %s: %w", we.Key, err)
		}
		cm, err := we.C.mat()
		if err != nil {
			return fmt.Errorf("warm entry %s: %w", we.Key, err)
		}
		states[we.Key] = &warmstart.State{
			Zs: we.Zs, D: d, C: cm, Basis: we.Basis, NBf: we.NBf, NAux: we.NAux,
			NOcc: we.NOcc, SCFIters: we.SCFIters,
		}
	}
	c.Restore(states)
	return nil
}

// envelope wraps the checkpoint payload with the integrity metadata
// checked before any field is trusted.
type envelope struct {
	Magic   string          `json:"magic"`
	Schema  int             `json:"schema"`
	CRC32C  uint32          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// syncDir opens a directory and fsyncs it, making a just-renamed entry
// durable. It is a replaceable seam so tests can observe that every
// atomic publish syncs its parent directory.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// AtomicWriteFile writes data to path crash-durably: a temporary file in
// the same directory is written, fsynced, and renamed over path, and the
// parent directory is fsynced after the rename. The temp-file dance
// alone only guarantees the *file contents* are never torn; on ext4/XFS
// the renamed directory entry itself lives in the parent directory's
// metadata, so a crash right after the rename can lose the new name
// entirely unless the directory is synced too.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("publish %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync parent of %s: %w", path, err)
	}
	return nil
}

// Save writes the checkpoint to path atomically and durably: the
// envelope is marshalled with a Castagnoli CRC over the payload bytes,
// written to a temporary file in the same directory, synced, renamed
// over path, and the parent directory is fsynced — a crash at any point
// leaves either the old checkpoint or the new one, never a torn or
// vanished one.
func Save(path string, ck *Checkpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("resilience: encode checkpoint: %w", err)
	}
	blob, err := json.Marshal(envelope{
		Magic:   checkpointMagic,
		Schema:  SchemaVersion,
		CRC32C:  crc32.Checksum(payload, castagnoli),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("resilience: encode envelope: %w", err)
	}
	if err := AtomicWriteFile(path, blob); err != nil {
		return fmt.Errorf("resilience: %w", err)
	}
	return nil
}

// Load reads and verifies a checkpoint: magic, schema version, and the
// payload checksum are all checked before decoding, so corruption
// surfaces as ErrCorrupt instead of a silently wrong trajectory.
func Load(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("%w: %s is not a checkpoint envelope: %v", ErrCorrupt, path, err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("%w: %s has magic %q, want %q", ErrCorrupt, path, env.Magic, checkpointMagic)
	}
	if env.Schema > SchemaVersion {
		return nil, fmt.Errorf("resilience: %s uses checkpoint schema %d; this build reads ≤ %d",
			path, env.Schema, SchemaVersion)
	}
	if got := crc32.Checksum(env.Payload, castagnoli); got != env.CRC32C {
		return nil, fmt.Errorf("%w: %s checksum %08x, recorded %08x", ErrCorrupt, path, got, env.CRC32C)
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Payload, &ck); err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrCorrupt, path, err)
	}
	return &ck, nil
}
