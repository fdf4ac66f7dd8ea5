package bench

import (
	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

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
	f, err := fragment.ByMolecule(molecule.WaterCluster(waters), 3, 1, fragment.Options{})
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("Warm-start ablation — (H2O)%d NVE, %s, dt=0.5 fs, %d polymers/step\n",
		waters, label, len(f.Terms().All()))
	opts := sched.Options{Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs}
	if err := sched.ColdWarm(c.Out, f, eval, opts, steps, 120, 17); err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("\nShape to verify: warm SCF-iterations strictly below cold every step after the\n")
	c.printf("first, with |ΔEpot| at SCF-convergence level (~1e-10 Ha) — reuse is exact.\n")
}
