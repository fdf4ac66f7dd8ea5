// Package cluster is a discrete-event simulator of the paper's
// distributed AIMD execution on the Frontier and Perlmutter
// supercomputers. Real hardware at that scale is a gate this
// reproduction cannot cross (DESIGN.md §2), so the machines are modelled:
// workers are GCDs/GPUs with the published sustained FP64 matrix peaks, a
// fragment's execution time follows the RI-MP2 GEMM operation counts
// divided by a size-dependent efficiency curve, and the super-coordinator
// is a serialised resource with a per-assignment service time plus a
// dispatch round-trip latency.
//
// The simulator is the discrete-event backend of the shared scheduling
// core in internal/coord — the *same* policy implementation (priority
// queue ordered by distance-to-reference then size, per-monomer
// dependency release, optional global barrier, hierarchical group
// coordinators with batched dispatch and work stealing) that drives the
// live engine in package sched. That is what lets it regenerate the
// shapes of Fig. 7 (strong scaling), Fig. 8 (weak scaling), Table V
// (sustained PFLOP/s) and the §VII-A async-vs-sync latency gains, and
// lets scheduling-policy changes be A/B'd at simulated machine scale
// before they run a live trajectory.
package cluster

// Machine models one HPC system.
type Machine struct {
	Name        string
	Nodes       int     // total nodes in the machine
	GCDsPerNode int     // accelerator dies per node
	PeakTF      float64 // sustained FP64 matrix TFLOP/s per GCD
	// EffMax and EffHalf parameterise the GEMM efficiency curve
	// eff(nbf) = EffMax · nbf / (nbf + EffHalf): small fragments run at
	// low FLOP rates (suboptimal GEMM shapes, FLOP-inefficient O(N³)
	// eigensolves and integrals — §VII-A), large fragments approach the
	// machine's practical ceiling.
	EffMax  float64
	EffHalf float64
	// DispatchLatency is the coordinator→worker round trip (seconds).
	DispatchLatency float64
	// CoordService is the serialised per-assignment coordinator time;
	// it produces the dynamic-load-balancing overhead the paper observes
	// at 4,096-node weak scaling (seconds).
	CoordService float64
	// GroupService and GroupLatency model the group-coordinator layer
	// of the hierarchical scheduler (DESIGN.md §6): the serialised
	// per-task service time of one group coordinator and its local
	// group→worker latency. Zero selects the defaults CoordService and
	// DispatchLatency/8 (group coordinators run the same bookkeeping on
	// the same hardware, but dispatch within their partition of the
	// interconnect).
	GroupService float64
	GroupLatency float64
	// RestartSeconds is how long a failed worker stays down before it
	// rejoins the pool (Options.MTBF failures; DESIGN.md §7). Zero
	// selects the default 30 s — a node reboot plus job-manager
	// re-registration, optimistic for a real machine but enough to make
	// recovery visibly non-free in the model.
	RestartSeconds float64
}

// groupService returns the effective group-coordinator per-task service
// time.
func (m Machine) groupService() float64 {
	if m.GroupService > 0 {
		return m.GroupService
	}
	return m.CoordService
}

// groupLatency returns the effective group→worker dispatch latency.
func (m Machine) groupLatency() float64 {
	if m.GroupLatency > 0 {
		return m.GroupLatency
	}
	return m.DispatchLatency / 8
}

// restartSeconds returns the effective worker restart delay.
func (m Machine) restartSeconds() float64 {
	if m.RestartSeconds > 0 {
		return m.RestartSeconds
	}
	return 30
}

// Frontier returns the OLCF Frontier model: 9,408 nodes × 4 MI250X
// (8 GCDs), 22.8 TFLOP/s sustained FP64 per GCD (1.715 EF total).
func Frontier() Machine {
	return Machine{
		Name:            "Frontier",
		Nodes:           9408,
		GCDsPerNode:     8,
		PeakTF:          22.8,
		EffMax:          0.80,
		EffHalf:         290,
		DispatchLatency: 300e-6,
		CoordService:    1.5e-6,
	}
}

// Perlmutter returns the NERSC Perlmutter model: 1,536 GPU nodes × 4
// A100, 18.4 TFLOP/s sustained FP64 per GPU (113 PF total). The A100
// model is relatively better on small fragments (lower EffHalf), as the
// paper observes (§VII-C).
func Perlmutter() Machine {
	return Machine{
		Name:            "Perlmutter",
		Nodes:           1536,
		GCDsPerNode:     4,
		PeakTF:          18.4,
		EffMax:          0.85,
		EffHalf:         170,
		DispatchLatency: 250e-6,
		CoordService:    1.5e-6,
	}
}

// Efficiency returns the modelled fraction of sustained peak a fragment
// with nbf basis functions achieves.
func (m Machine) Efficiency(nbf int) float64 {
	return m.EffMax * float64(nbf) / (float64(nbf) + m.EffHalf)
}

// TotalPeakPF returns the sustained FP64 peak of n nodes in PFLOP/s.
func (m Machine) TotalPeakPF(nodes int) float64 {
	return float64(nodes*m.GCDsPerNode) * m.PeakTF / 1e3
}

// RIMP2GradientFLOPs estimates the floating-point operations of one
// fragment RI-HF + RI-MP2 gradient from the leading GEMM terms:
//
//	B-tensor build + J^{-1/2} application:   2·naux²·nbf² + 4·naux·nbf³ (MO transforms)
//	(ia|jb) assembly (Eq. 9):                2·naux·nocc²·nvir²
//	amplitude/density/Γ/Λ stages:            ≈ 3× the (ia|jb) cost
//	Z-vector CG (≈10 iterations of G[M]):    10·4·naux·nbf²·nocc-ish
//	derivative contractions:                 ≈ 2·naux²·nbf²
//
// Absolute prefactors matter less than how cost scales with fragment
// size; the constants below reproduce the paper's few-second protein
// fragments and ~minutes/step million-electron aggregate workloads.
func RIMP2GradientFLOPs(nbf, nocc, naux int) float64 {
	nvir := nbf - nocc
	if nvir < 0 {
		nvir = 0
	}
	fb := float64(nbf)
	fo := float64(nocc)
	fv := float64(nvir)
	fx := float64(naux)
	b := 2*fx*fx*fb*fb + 4*fx*fb*fb*fb
	iajb := 2 * fx * fo * fo * fv * fv
	amp := 3 * iajb
	zvec := 40 * fx * fb * fb * fo
	deriv := 2 * fx * fx * fb * fb
	eig := 18 * fb * fb * fb // low-rate O(N³) phases, charged as FLOPs at GEMM rate penalty via Efficiency
	return b + iajb + amp + zvec + deriv + eig
}

// Seconds returns the modelled wall time of a fragment with the given
// dimensions on one GCD of m.
func (m Machine) Seconds(nbf, nocc, naux int) (secs, flops float64) {
	flops = RIMP2GradientFLOPs(nbf, nocc, naux)
	rate := m.PeakTF * 1e12 * m.Efficiency(nbf)
	return flops / rate, flops
}
