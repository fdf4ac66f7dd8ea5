package bench

import (
	"math"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// Embed reports the EE-MBE accuracy/throughput experiment (DESIGN.md
// §8): the accuracy half measures the MBE2 error against the RI-HF
// supersystem reference on water clusters, vacuum vs electrostatically
// embedded (with and without SCC refinement); the throughput half
// measures the two-phase task graph's cost in the live engine on the
// fast surrogate, vacuum vs embedded, where the per-step charge
// barrier is the only difference.
func Embed(c *Config) {
	c.printf("EE-MBE accuracy: water clusters, MBE2 vs RI-HF supersystem (STO-3G)\n")
	c.printf("  %-4s %16s %14s %14s %14s %8s\n",
		"n", "E_super (Ha)", "err vac", "err EE", "err EE+SCC2", "wall")
	sizes := []int{3, 4}
	if !c.Quick {
		sizes = []int{3, 4, 5}
	}
	hf := &potential.HF{UseRI: true}
	improved := 0
	for _, n := range sizes {
		g := molecule.WaterCluster(n)
		super, _, err := hf.Evaluate(g)
		if err != nil {
			c.fail("embed: supersystem: " + err.Error())
			return
		}
		f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2})
		if err != nil {
			c.fail("embed: " + err.Error())
			return
		}
		start := time.Now()
		vac, err := f.Compute(hf)
		if err != nil {
			c.fail("embed: vacuum MBE2: " + err.Error())
			return
		}
		ee, err := f.ComputeEmbedded(hf, nil, fragment.EmbedOptions{})
		if err != nil {
			c.fail("embed: EE-MBE2: " + err.Error())
			return
		}
		scc, err := f.ComputeEmbedded(hf, nil, fragment.EmbedOptions{SCC: 2, Damping: 0.3, SCCTol: 1e-7})
		if err != nil {
			c.fail("embed: EE-MBE2/SCC: " + err.Error())
			return
		}
		wall := time.Since(start)
		errVac := vac.Energy - super
		errEE := ee.Energy - super
		errSCC := scc.Energy - super
		c.printf("  %-4d %16.8f %14.3e %14.3e %14.3e %7.1fs\n",
			n, super, errVac, errEE, errSCC, wall.Seconds())
		if math.Abs(errEE) < math.Abs(errVac) {
			improved++
		}
	}
	c.printf("  embedding shrank the MBE2 error on %d/%d clusters\n\n", improved, len(sizes))
	if improved == 0 {
		c.fail("embed: embedding never improved the MBE2 error")
	}

	// Throughput: the surrogate potential isolates scheduling cost; the
	// embedded runs add 1 (and 2) charge rounds per step plus the
	// global per-step release the field coupling requires.
	nWaters, steps := 24, 4
	if c.Quick {
		nWaters, steps = 12, 3
	}
	g := molecule.WaterCluster(nWaters)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2, DimerCutoff: 12})
	if err != nil {
		c.fail("embed: " + err.Error())
		return
	}
	lj := &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}, Delay: 2e-4}
	c.printf("EE-MBE scheduling cost: %d waters, %d polymers, %d steps (LJ surrogate)\n",
		nWaters, len(f.Terms().All()), steps)
	c.printf("  %-14s %12s %14s\n", "mode", "wall/step", "vs vacuum")
	var vacuumPerStep float64
	for _, mode := range []struct {
		name  string
		embed *fragment.EmbedOptions
	}{
		{"vacuum", nil},
		{"embedded", &fragment.EmbedOptions{}},
		{"embedded+scc", &fragment.EmbedOptions{SCC: 1, Damping: 0.3}},
	} {
		// Started at rest: 0 K samples zero velocities.
		_, wall, err := trajectory(f, lj, sched.Options{
			Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Embed: mode.embed,
		}, steps, 0, 0)
		if err != nil {
			c.fail("embed: " + err.Error())
			return
		}
		perStep := wall / float64(steps)
		if mode.embed == nil {
			vacuumPerStep = perStep
			c.printf("  %-14s %11.3fs %14s\n", mode.name, perStep, "—")
		} else {
			c.printf("  %-14s %11.3fs %13.2f×\n", mode.name, perStep, perStep/vacuumPerStep)
		}
	}
}
