package bench

import (
	"math/rand"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// warmDynamics runs one short AIMD trajectory and returns its per-step
// stats. The same geometry, seed and engine options are used for every
// invocation so cold and warm runs differ only in the SCF guess.
func warmDynamics(g *molecule.Geometry, eval fragment.Evaluator, steps int, opts sched.Options) ([]sched.StepStats, error) {
	f, err := fragment.ByMolecule(g.Clone(), 3, 1, fragment.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(f, eval, opts)
	if err != nil {
		return nil, err
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(120, rand.New(rand.NewSource(17)))
	return eng.Run(state, steps, nil)
}

// WarmStartAblation measures the incremental-evaluation subsystem: the
// same NVE water-cluster trajectory is integrated cold (core-guess SCF
// every polymer, every step) and warm (each polymer's previous
// converged density seeds its next SCF), reporting SCF iterations per
// step and wall-clock per step for both — the speedup is measured, not
// asserted.
func WarmStartAblation(c *Config) {
	waters, steps := 2, 5
	var eval fragment.Evaluator = &potential.HF{UseRI: true, AuxOpts: basis.AuxOptions{PerL: []int{5, 4, 3}}}
	label := "RI-HF/sto-3g"
	if !c.Quick {
		waters, steps = 3, 8
		eval = &potential.RIMP2{Basis: "sto-3g", AuxOpts: glyAuxOpts}
		label = "RI-MP2/sto-3g"
	}
	g := molecule.WaterCluster(waters)
	base := sched.Options{Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs}

	// Untimed throwaway step: first-use costs (pooled pack buffers, cold
	// caches) would otherwise land on whichever timed run goes first and
	// bias the cold-vs-warm wall comparison.
	if _, err := warmDynamics(g, eval, 1, base); err != nil {
		c.printf("error: %v\n", err)
		return
	}

	cold, err := warmDynamics(g, eval, steps, base)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	warmOpts := base
	warmOpts.WarmStart = true
	warm, err := warmDynamics(g, eval, steps, warmOpts)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}

	c.printf("Warm-start ablation — (H2O)%d NVE, %s, dt=0.5 fs, %d polymers/step\n",
		waters, label, cold[0].NPolymer)
	sched.CompareDynamics(c.Out, cold, warm)
	c.printf("\nShape to verify: warm SCF-iterations strictly below cold every step after the\n")
	c.printf("first, with |ΔEpot| at SCF-convergence level (~1e-10 Ha) — reuse is exact.\n")
}
