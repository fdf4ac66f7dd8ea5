package bench

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/cluster"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/netcoord"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// Water-monomer electronic dimensions (STO-3G) used consistently by
// the live cost model and the simulated workload, so the two sides of
// the A/B oracle price every polymer with the same curve.
const (
	waterNBf  = 7
	waterNOcc = 5
	waterNAux = 21
)

// modelCostEval is the live half of the A/B oracle: a Lennard-Jones
// evaluator throttled to the cluster model's RI-MP2 gradient cost
// curve, normalised so one monomer task takes perMonomer. The physics
// stays cheap and exact; only the *timing* emulates ab initio work.
type modelCostEval struct {
	lj         potential.LennardJones
	perMonomer time.Duration
	evals      atomic.Int64
}

func (e *modelCostEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	k := g.N() / 3 // water monomers in this polymer
	scale := cluster.RIMP2GradientFLOPs(waterNBf*k, waterNOcc*k, waterNAux*k) /
		cluster.RIMP2GradientFLOPs(waterNBf, waterNOcc, waterNAux)
	time.Sleep(time.Duration(float64(e.perMonomer) * scale))
	e.evals.Add(1)
	return e.lj.Evaluate(g)
}

// NetCoord runs the network-backend A/B oracle (DESIGN.md §10): the
// same water-cluster AIMD workload executes once live — a coordinator
// and worker processes talking gob-over-TCP across localhost — and
// once in the discrete-event cluster simulator with a Machine profile
// calibrated to the live workers' task cost. Predicted and measured
// task throughput must agree within a generous factor; a larger gap
// means the transport or the model has drifted from reality.
func NetCoord(c *Config) {
	waters, steps, procs, slots := 8, 3, 2, 2
	perMonomer := 2 * time.Millisecond
	if !c.Quick {
		waters, steps, procs, slots = 12, 5, 4, 2
	}
	const dimerA, trimerA = 12.0, 9.0 // cutoffs, Å
	nWorkers := procs * slots

	g := molecule.WaterCluster(waters)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{
		DimerCutoff:  dimerA * chem.BohrPerAngstrom,
		TrimerCutoff: trimerA * chem.BohrPerAngstrom,
	})
	if err != nil {
		c.fail("netcoord: " + err.Error())
		return
	}
	nPoly := len(f.Terms().All())

	// Live half: real TCP transport on localhost, throttled-LJ workers.
	eval := &modelCostEval{perMonomer: perMonomer}
	fleet, err := netcoord.Listen("127.0.0.1:0", netcoord.CoordinatorOptions{
		Eval:      potential.Spec{Potential: "lj"},
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		c.fail("netcoord: " + err.Error())
		return
	}
	defer fleet.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < procs; i++ {
		go netcoord.RunWorker(ctx, fleet.Addr(), netcoord.WorkerOptions{Slots: slots, Eval: eval})
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	opts := sched.Options{Async: true, Dt: 0.5 * chem.AtomicTimePerFs}
	release, err := fleet.Lease(waitCtx, procs, &opts)
	if err != nil {
		c.fail("netcoord: " + err.Error())
		return
	}
	defer release()
	stats, wall, err := trajectory(f, nil, opts, steps, 150, 1)
	if err != nil {
		c.fail("netcoord: " + err.Error())
		return
	}
	// The engine dispatches the polymers of its task graph — those with a
	// non-zero MBE coefficient — every step.
	tasks := 0
	for _, st := range stats {
		tasks += st.NPolymer
	}
	measured := float64(tasks) / wall

	// Simulated half: the same workload under the same policy on a
	// Machine calibrated so a monomer task costs exactly perMonomer
	// (efficiency curve flattened to 1, peak set from the cost model).
	monomers := make([]cluster.MonomerSpec, len(f.Monomers))
	for i := range f.Monomers {
		ctr := f.Centroid(i)
		for k := 0; k < 3; k++ {
			ctr[k] *= chem.AngstromPerBohr
		}
		monomers[i] = cluster.MonomerSpec{
			Centroid: ctr, Atoms: 3,
			NBf: waterNBf, NOcc: waterNOcc, NAux: waterNAux,
		}
	}
	w := cluster.NewWorkload(monomers, dimerA, trimerA)
	monoFLOPs := cluster.RIMP2GradientFLOPs(waterNBf, waterNOcc, waterNAux)
	machine := cluster.Machine{
		Name:            "localhost-calibrated",
		Nodes:           nWorkers,
		GCDsPerNode:     1,
		PeakTF:          monoFLOPs / (perMonomer.Seconds() * 1e12),
		EffMax:          1,
		EffHalf:         0,
		DispatchLatency: 200e-6,
		CoordService:    1.5e-6,
	}
	res, err := cluster.Simulate(w, machine, cluster.Options{
		Nodes: nWorkers, Steps: steps, Async: true, Schedule: coord.Schedule{Groups: procs},
		Seed: c.Seed, Jitter: c.Jitter,
	})
	if err != nil {
		c.fail("netcoord: " + err.Error())
		return
	}

	c.printf("Network backend A/B oracle — live localhost TCP vs calibrated simulation\n")
	c.printf("  workload              %d waters, %d polymers (sim enumerated %d), %d tasks per step (sim %d), %d steps\n",
		waters, nPoly, len(w.Polymers), stats[0].NPolymer, res.NPolymers, steps)
	c.printf("  fleet                 %d worker processes × %d slots, monomer task %s\n",
		procs, slots, perMonomer)
	c.printf("  live evaluations      %d (%d dispatched tasks) in %.2f s\n",
		eval.evals.Load(), tasks, wall)
	c.printf("  measured throughput   %8.1f tasks/s\n", measured)
	c.printf("  predicted throughput  %8.1f tasks/s (simulated makespan %.2f s)\n",
		res.Throughput, res.Makespan)
	ratio := res.Throughput / measured
	c.printf("  predicted/measured    %8.2f×\n", ratio)
	if len(w.Polymers) != nPoly {
		c.fail("netcoord: simulated workload enumerates a different polymer set than the live fragmentation")
	}
	if res.NPolymers*steps != tasks {
		c.fail("netcoord: simulated workload keeps a different task set than the live engine")
	}
	// The simulator knows nothing about gob encoding, kernel scheduling
	// of sleeping goroutines, or localhost RTTs, so the gate is a
	// generous envelope — it catches order-of-magnitude drift (a broken
	// transport serialising all work, a miscalibrated model), not noise.
	const envelope = 8.0
	if ratio > envelope || ratio < 1/envelope {
		c.fail("netcoord: predicted and measured throughput disagree beyond the 8x envelope")
	}
}
