package fragmd_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/fragmd/fragmd"
)

// End-to-end smoke test of the public API: fragment a water trimer,
// compute the MBE3/RI-MP2 energy and compare with the supersystem
// (an exact identity for three monomers).
func TestPublicAPIEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 supersystem comparison is slow; run without -short")
	}
	sys := fragmd.WaterCluster(3)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eval := fragmd.NewRIMP2Potential("sto-3g", false)
	res, err := frag.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	eSuper, _, err := eval.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-eSuper) > 1e-8 {
		t.Errorf("MBE3 %.10f != supersystem %.10f", res.Energy, eSuper)
	}
}

// Public API AIMD: a few asynchronous steps with the surrogate
// potential must conserve energy.
func TestPublicAPIMD(t *testing.T) {
	sys := fragmd.WaterCluster(4)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := fragmd.RunAIMD(frag, fragmd.NewLennardJonesPotential(), 150, 0.25, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 10 {
		t.Fatalf("got %d steps", len(stats))
	}
	drift := math.Abs(stats[9].Etot - stats[0].Etot)
	if drift > 1e-5 {
		t.Errorf("energy drift %.2e", drift)
	}
}

// Public API cluster simulation: the million-electron workload must
// enumerate and simulate.
func TestPublicAPISimulation(t *testing.T) {
	w := fragmd.UreaWorkload(400, 4, 15.3, 15.3)
	r, err := fragmd.Simulate(w, fragmd.Frontier(), fragmd.SimOptions{Nodes: 16, Steps: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.PFLOPS <= 0 || r.PeakFraction <= 0 || r.PeakFraction > 1 {
		t.Errorf("implausible simulation result: %+v", r)
	}
}

// FLOP accounting is exposed and monotone.
func TestPublicAPIFLOPs(t *testing.T) {
	fragmd.ResetGEMMFLOPs()
	sys := fragmd.Water()
	eval := fragmd.NewRIMP2Potential("sto-3g", false)
	if _, _, err := eval.Evaluate(sys); err != nil {
		t.Fatal(err)
	}
	if fragmd.GEMMFLOPs() <= 0 {
		t.Error("GEMM FLOP counter did not advance during an RI-MP2 evaluation")
	}
}

// Public API distributed backend: the same LJ trajectory run in
// process and over a localhost worker fleet must agree step for step
// (DESIGN.md §10).
func TestPublicAPIDistributed(t *testing.T) {
	sys := fragmd.WaterCluster(4)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, local, err := fragmd.RunAIMD(frag, fragmd.NewLennardJonesPotential(), 150, 0.25, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	c, err := fragmd.ListenCoordinator("127.0.0.1:0", fragmd.CoordinatorOptions{
		Eval: fragmd.EvalSpec{Potential: "lj"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go fragmd.RunWorkerProcess(ctx, c.Addr(), fragmd.WorkerOptions{Slots: 2})
	}
	if _, err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	x := c.Executor()
	eng, err := fragmd.NewEngine(frag, nil, fragmd.EngineOptions{
		Async: true, Dt: 0.25 * fragmd.AtomicTimePerFs, Exec: x, Schedule: fragmd.Schedule{Groups: x.Procs()},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := fragmd.NewMDState(frag.Geom.Clone())
	st.SampleVelocities(150, rand.New(rand.NewSource(1)))
	remote, err := eng.Run(st, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote run reported %d steps, local %d", len(remote), len(local))
	}
	for i := range local {
		if d := math.Abs(remote[i].Etot - local[i].Etot); d > 1e-10 {
			t.Errorf("step %d: |ΔEtot| = %.3e Ha between network and in-process engines", i, d)
		}
	}
}
