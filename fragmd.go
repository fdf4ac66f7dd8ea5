// Package fragmd is a from-scratch Go implementation of biomolecular-
// scale ab initio molecular dynamics with MP2 potentials, reproducing
// "Breaking the Million-Electron and 1 EFLOP/s Barriers" (SC 2024):
// MBE3 molecular fragmentation, synergistic RI-HF + RI-MP2 analytic
// gradients with no four-center integrals, asynchronous time-step AIMD,
// the runtime GEMM auto-tuning experiment, and a discrete-event
// simulator of the Frontier/Perlmutter executions.
//
// This file is the public facade: it re-exports the stable surface of
// the internal packages through type aliases and constructors, so
// downstream code imports only github.com/fragmd/fragmd.
//
// Quick start:
//
//	sys := fragmd.WaterCluster(8)
//	frag, _ := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
//	res, _ := frag.Compute(fragmd.NewRIMP2Potential("sto-3g", false))
//	fmt.Println(res.Energy)
//
// # Warm-start / incremental AIMD
//
// Successive AIMD time steps move each fragment only slightly, so the
// engine can reuse per-polymer electronic state across steps
// (EngineOptions.WarmStart, package warmstart): each polymer's
// converged density seeds the next SCF of the same polymer. Every
// polymer is still evaluated at every step, and converged energies and
// forces are unchanged to within the SCF thresholds — only iteration
// counts and wall time drop. StepStats.SCFIters measures the effect.
//
// See NewWarmStartCache to carry state across engines or into the
// serial ComputeWithCache path.
package fragmd

import (
	"context"
	"math/rand"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/cluster"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/serve"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// Geometry is a molecular geometry (positions in Bohr; XYZ I/O in Å).
type Geometry = molecule.Geometry

// Cell is an orthorhombic periodic cell (edge lengths in Bohr). Attach
// one to Geometry.Cell — or build a periodic system with WaterBox,
// SolvatedSolute or UreaSupercell — and every distance in the
// fragmentation path, the LJ potential and the neighbour enumeration
// switches to the minimum-image convention. Atom positions stay
// unwrapped; see the molecule package for the full conventions.
type Cell = molecule.Cell

// NewCell (Bohr) and NewCellAngstrom (Å) build a validated periodic
// cell from three positive edge lengths.
var (
	NewCell         = molecule.NewCell
	NewCellAngstrom = molecule.NewCellAngstrom
)

// Geometry builders for the paper's benchmark systems. WaterBox,
// SolvatedSolute and UreaSupercell build periodic/solvated systems
// with Geometry.Cell attached (see Cell).
var (
	Water             = molecule.Water
	WaterDimer        = molecule.WaterDimer
	WaterCluster      = molecule.WaterCluster
	WaterBox          = molecule.WaterBox
	SolvatedSolute    = molecule.SolvatedSolute
	Urea              = molecule.Urea
	UreaCrystalSphere = molecule.UreaCrystalSphere
	UreaSupercell     = molecule.UreaSupercell
	Paracetamol       = molecule.Paracetamol
	ParacetamolSphere = molecule.ParacetamolSphere
	Polyglycine       = molecule.Polyglycine
	BetaFibril        = molecule.BetaFibril
	ParseXYZ          = molecule.ParseXYZ
)

// Unit conversions.
const (
	BohrPerAngstrom = chem.BohrPerAngstrom
	AngstromPerBohr = chem.AngstromPerBohr
	AtomicTimePerFs = chem.AtomicTimePerFs
	KJPerMolPerHa   = chem.KJPerMolPerHartree
)

// Fragmentation types (MBE3 machinery, paper §V-B).
type (
	// Fragmentation partitions a system into monomers and enumerates
	// dimer/trimer corrections under distance cutoffs.
	Fragmentation = fragment.Fragmentation
	// FragmentOptions sets cutoffs (Bohr) and the MBE order; bond
	// detection and the 1.09 Å H-cap length are fixed.
	FragmentOptions = fragment.Options
	// Evaluator computes a fragment's energy and gradient.
	Evaluator = fragment.Evaluator
	// StatefulEvaluator additionally reuses converged electronic state
	// across evaluations (warm starting); the built-in potentials all
	// implement it.
	StatefulEvaluator = fragment.StatefulEvaluator
	// MBEResult is an assembled energy/gradient with ΔE bookkeeping:
	// its Terms is the MBE term graph it was assembled over, PolymerE
	// holds one raw energy per Terms.All() index, and DeltaDimer and
	// DeltaTri are aligned with Terms.Dimers and Terms.Trimers.
	MBEResult = fragment.Result
	// WarmStartCache holds per-polymer electronic states across AIMD
	// steps (see the package comment's warm-start section).
	WarmStartCache = warmstart.Cache
	// WarmStartState is one polymer's reusable converged state.
	WarmStartState = warmstart.State
)

// Electrostatic embedding (EE-MBE, DESIGN.md §8): every MBE term is
// evaluated in the point-charge field of the monomers outside it, so
// the truncated expansion captures the long-range polarisation that
// bare-fragment MBE misses at biomolecular scale.
type (
	// PointCharges is an external point-charge field (flat 3M site
	// positions in Bohr, M charges in e).
	PointCharges = integrals.PointCharges
	// EmbedOptions configures the two-phase EE-MBE driver: SCC rounds
	// of self-consistent monomer charges (with damping and an early
	// convergence stop), then embedded evaluation of every polymer.
	// Use it with Fragmentation.ComputeEmbedded (serial) or
	// EngineOptions.Embed (asynchronous AIMD engine, where SCCTol is
	// ignored because the task graph is static).
	EmbedOptions = fragment.EmbedOptions
	// EmbeddedEvaluator evaluates a fragment in a point-charge field,
	// returning also the analytic forces on the field sites; the
	// RI-MP2, HF and Lennard-Jones potentials all implement it.
	EmbeddedEvaluator = fragment.EmbeddedEvaluator
	// ChargeSource derives per-atom partial charges (EE-MBE phase 1).
	ChargeSource = fragment.ChargeSource
)

// NewWarmStartCache creates a warm-start cache for incremental MBE
// evaluation. Pass it via EngineOptions.Cache or
// Fragmentation.ComputeWithCache.
func NewWarmStartCache() *WarmStartCache {
	return warmstart.NewCache()
}

// NewFragmentation fragments with an explicit monomer partition
// (atom-index lists); covalent boundaries are hydrogen-capped.
func NewFragmentation(g *Geometry, monomers [][]int, opts FragmentOptions) (*Fragmentation, error) {
	return fragment.New(g, monomers, opts)
}

// FragmentByMolecule fragments a cluster built molecule-by-molecule into
// monomers of molsPerMonomer consecutive molecules.
func FragmentByMolecule(g *Geometry, atomsPerMol, molsPerMonomer int, opts FragmentOptions) (*Fragmentation, error) {
	return fragment.ByMolecule(g, atomsPerMol, molsPerMonomer, opts)
}

// NewRIMP2Potential returns the paper's production potential: RI-HF +
// RI-MP2 energies with fully analytic gradients. basis is "sto-3g" or
// "dzp"; scs applies spin-component scaling to reported energies.
func NewRIMP2Potential(basis string, scs bool) Evaluator {
	return &potential.RIMP2{Basis: basis, SCS: scs}
}

// NewHFPotential returns a Hartree-Fock potential; useRI selects the
// RI Fock build, false the conventional four-center baseline.
func NewHFPotential(basis string, useRI bool) Evaluator {
	return &potential.HF{Basis: basis, UseRI: useRI}
}

// NewLennardJonesPotential returns the fast surrogate potential used to
// exercise MD and scheduling at scales the ab initio evaluators cannot
// reach on a workstation.
func NewLennardJonesPotential() Evaluator { return &potential.LennardJones{} }

// MD types.
type (
	// MDState holds positions, velocities and masses in atomic units,
	// and after an engine run the forces at its positions, from which
	// the next run on it continues.
	MDState = md.State
	// StepStats reports one asynchronous-engine time step.
	StepStats = sched.StepStats
	// EngineOptions configures the asynchronous AIMD engine. A run's
	// deadline is the context passed to Engine.RunContext.
	EngineOptions = sched.Options
	// Engine is the asynchronous time-step AIMD driver (paper §V-F).
	Engine = sched.Engine
)

// NewMDState builds a state with standard masses and zero velocities.
func NewMDState(g *Geometry) *MDState { return md.NewState(g) }

// Berendsen is the weak-coupling thermostat for NVT equilibration before
// NVE production runs.
type Berendsen = md.Berendsen

// TrajectoryWriter streams MD frames as multi-frame XYZ.
type TrajectoryWriter = md.TrajectoryWriter

// NewEngine creates the asynchronous (or, with Async=false, barrier-
// synchronised) AIMD engine over a fragmentation and potential. The
// EngineOptions Groups/Batch/Steal knobs engage the hierarchical
// group-coordinator scheduler shared with the cluster simulator
// (DESIGN.md §6); Workers defaults to runtime.GOMAXPROCS(0).
func NewEngine(f *Fragmentation, eval Evaluator, opts EngineOptions) (*Engine, error) {
	return sched.New(f, eval, opts)
}

// RunAIMD is a convenience wrapper: fragment the system, sample
// Maxwell–Boltzmann velocities, and run n asynchronous MBE3 AIMD steps.
// dtFs is the time step in femtoseconds.
func RunAIMD(f *Fragmentation, eval Evaluator, tempK, dtFs float64, n int, seed int64, obs func(StepStats)) (*MDState, []StepStats, error) {
	eng, err := sched.New(f, eval, sched.Options{Async: true, Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		return nil, nil, err
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(tempK, rand.New(rand.NewSource(seed)))
	stats, err := eng.Run(state, n, obs)
	return state, stats, err
}

// Resilience types (checkpoint/restart and failure injection; see
// DESIGN.md §7). A trajectory checkpoint is a schema-versioned,
// atomically-written, checksummed snapshot of the MD state plus the
// warm-start cache; a FailureInjector drives seeded deterministic
// chaos (task failures, worker deaths, stragglers) through
// EngineOptions.Injector or SimOptions.Injector.
type (
	// Checkpoint is a trajectory snapshot with Save/Load round-trip
	// integrity (CRC-checked) and State()/RestoreCache() rebuilders.
	Checkpoint = resilience.Checkpoint
	// FailureInjector makes seeded, order-independent failure
	// decisions for chaos testing in both scheduler backends.
	FailureInjector = resilience.FailureInjector
	// InjectOptions configures a FailureInjector.
	InjectOptions = resilience.InjectOptions
)

// SnapshotTrajectory captures a checkpoint from an MD state after
// stepsDone completed force evaluations with time step dt (atomic
// units); attach the engine's warm-start cache with
// Checkpoint.AttachCache before saving to keep the incremental-SCF
// advantage across the restart.
func SnapshotTrajectory(state *MDState, stepsDone int, dt float64) *Checkpoint {
	return resilience.Snapshot(state, stepsDone, dt)
}

// SaveCheckpoint atomically writes a checkpoint (temp file + rename,
// CRC over the payload); LoadCheckpoint verifies magic, schema and
// checksum before trusting any field.
func SaveCheckpoint(path string, ck *Checkpoint) error { return resilience.Save(path, ck) }

// LoadCheckpoint reads and verifies a checkpoint written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) { return resilience.Load(path) }

// NewFailureInjector builds a seeded deterministic failure injector.
func NewFailureInjector(o InjectOptions) (*FailureInjector, error) {
	return resilience.NewFailureInjector(o)
}

// Cluster-simulation types (the Frontier/Perlmutter substitute).
type (
	// Machine models an HPC system for the discrete-event simulator.
	Machine = cluster.Machine
	// Workload is a fragment workload with dependency metadata.
	Workload = cluster.Workload
	// SimOptions configures a simulated run.
	SimOptions = cluster.Options
	// SimResult reports simulated latency, PFLOP/s and peak fraction.
	SimResult = cluster.Result
)

// Machine models and workload builders.
var (
	Frontier            = cluster.Frontier
	Perlmutter          = cluster.Perlmutter
	UreaWorkload        = cluster.UreaWorkload
	ParacetamolWorkload = cluster.ParacetamolWorkload
	FibrilWorkload      = cluster.FibrilWorkload
)

// Simulate runs the discrete-event execution model.
func Simulate(w *Workload, m Machine, opts SimOptions) (*SimResult, error) {
	return cluster.Simulate(w, m, opts)
}

// Distributed-backend types (gob-over-TCP worker fleet, DESIGN.md
// §10): a Coordinator accepts WorkerProcess connections and hands the
// engine a remote executor via EngineOptions.Exec, so an MD trajectory
// runs across OS processes with the same scheduling policy — and the
// same failure semantics — as the in-process pool.
type (
	// Coordinator listens for worker processes and snapshots the live
	// fleet into per-run executors (Coordinator.Executor).
	Coordinator = netcoord.Coordinator
	// CoordinatorOptions configures the evaluator spec the workers must
	// build, the heartbeat interval (silence past 5× evicts) and logging.
	CoordinatorOptions = netcoord.CoordinatorOptions
	// WorkerOptions configures one worker process: slot count,
	// warm-start cache, and the redial policy.
	WorkerOptions = netcoord.WorkerOptions
	// EvalSpec names an evaluator configuration portably, so the
	// coordinator can ship it to workers in the handshake.
	EvalSpec = potential.Spec
)

// ListenCoordinator starts accepting worker connections; call
// Coordinator.Lease to point an EngineOptions at the fleet for one
// engine run.
func ListenCoordinator(addr string, opts CoordinatorOptions) (*Coordinator, error) {
	return netcoord.Listen(addr, opts)
}

// RunWorkerProcess serves evaluation tasks to the coordinator at addr
// until ctx is cancelled, redialling through coordinator restarts (see
// WorkerOptions.Redial). It is the library form of "fragmd worker".
func RunWorkerProcess(ctx context.Context, addr string, opts WorkerOptions) error {
	return netcoord.RunWorker(ctx, addr, opts)
}

// Trajectory-server types (fragmd-as-a-service, DESIGN.md §12): a
// TrajectoryServer runs MD trajectories for many tenants behind an
// HTTP/JSON API with admission control, tenant-fair scheduling, shared
// warm-start caches, and durable per-job checkpoints — Drain parks
// every in-flight job at its next checkpoint and a successor server on
// the same state directory resumes all of them. It is the library form
// of "fragmd serve".
type (
	// TrajectoryServer owns the job queue, the runners, and the durable
	// state directory; serve its Handler() over net/http.
	TrajectoryServer = serve.Server
	// ServeOptions configures capacity, checkpoint cadence, and the
	// optional worker fleet behind the server.
	ServeOptions = serve.Options
	// ServeJobSpec is a client's trajectory request (the POST /v1/jobs
	// body).
	ServeJobSpec = serve.JobSpec
	// ServeJobView is the API projection of a job's progress.
	ServeJobView = serve.JobView
)

// NewTrajectoryServer opens (or re-opens, resuming parked jobs) a
// trajectory server over the given durable state directory.
func NewTrajectoryServer(opts ServeOptions) (*TrajectoryServer, error) {
	return serve.New(opts)
}

// GEMMFLOPs returns the global GEMM FLOP counter (2·m·n·k per call, the
// paper's measurement mechanism); ResetGEMMFLOPs zeroes it.
func GEMMFLOPs() int64 { return linalg.FLOPs() }

// ResetGEMMFLOPs zeroes the global GEMM FLOP counter and returns the
// value it held.
func ResetGEMMFLOPs() int64 { return linalg.ResetFLOPs() }
