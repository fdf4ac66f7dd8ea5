package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

func ljEmbedEval() *potential.LennardJones {
	return &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
}

// The engine's step-0 embedded potential energy must equal the serial
// two-phase driver bit-for-bit up to fold order — on a molecular
// cluster and on a capped covalent chain, with and without SCC rounds.
func TestEngineMatchesSerialEmbedded(t *testing.T) {
	cases := []struct {
		name     string
		geom     *molecule.Geometry
		monomers [][]int
		opts     fragment.Options
		embed    fragment.EmbedOptions
	}{
		{"water-cluster", molecule.WaterCluster(5), nil,
			fragment.Options{MaxOrder: 2, DimerCutoff: 10}, fragment.EmbedOptions{}},
		{"water-cluster-scc", molecule.WaterCluster(4), nil,
			fragment.Options{MaxOrder: 2}, fragment.EmbedOptions{SCC: 2, Damping: 0.3}},
	}
	gGly, residues := molecule.Polyglycine(4)
	cases = append(cases, struct {
		name     string
		geom     *molecule.Geometry
		monomers [][]int
		opts     fragment.Options
		embed    fragment.EmbedOptions
	}{"polyglycine-capped", gGly, residues, fragment.Options{MaxOrder: 2, DimerCutoff: 8}, fragment.EmbedOptions{SCC: 1}})

	for _, tc := range cases {
		var f *fragment.Fragmentation
		var err error
		if tc.monomers == nil {
			f, err = fragment.ByMolecule(tc.geom, 3, 1, tc.opts)
		} else {
			f, err = fragment.New(tc.geom, tc.monomers, tc.opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		serial, err := f.ComputeEmbedded(ljEmbedEval(), nil, tc.embed)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			embed := tc.embed
			eng, err := New(f, ljEmbedEval(), Options{
				Workers: workers, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Embed: &embed,
			})
			if err != nil {
				t.Fatal(err)
			}
			state := md.NewState(f.Geom.Clone())
			stats, err := eng.Run(state, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(stats[0].Epot - serial.Energy); d > 1e-10 {
				t.Errorf("%s (workers=%d): engine %.12f vs serial %.12f (Δ %.2e)",
					tc.name, workers, stats[0].Epot, serial.Energy, d)
			}
		}
	}
}

// An embedded engine refuses evaluators without the charge/embedding
// interfaces, malformed embed options and periodic systems.
func TestEngineEmbedValidation(t *testing.T) {
	g := molecule.WaterCluster(3)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, stripEval{ljEmbedEval()}, Options{
		Async: true, Dt: 1, Embed: &fragment.EmbedOptions{},
	}); err == nil {
		t.Error("evaluator without embedding interfaces accepted")
	}
	if _, err := New(f, ljEmbedEval(), Options{
		Async: true, Dt: 1, Embed: &fragment.EmbedOptions{SCC: -1},
	}); err == nil {
		t.Error("negative SCC accepted")
	}
	g.Cell, _ = molecule.NewCellAngstrom(20, 20, 20)
	if f, err = fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, ljEmbedEval(), Options{
		Async: true, Dt: 1, Embed: &fragment.EmbedOptions{},
	}); err == nil || !strings.Contains(err.Error(), "periodic cell 20 x 20 x 20 Å") {
		t.Errorf("embedding in a periodic cell: got %v, want the cell refusal", err)
	}
	if _, err := New(f, ljEmbedEval(), Options{Async: true, Dt: 1}); err != nil {
		t.Errorf("vacuum MBE in the same cell refused: %v", err)
	}
}

// stripEval hides the embedding interfaces of an evaluator.
type stripEval struct{ inner fragment.Evaluator }

func (s stripEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	return s.inner.Evaluate(g)
}

// NVE with embedding on (the acceptance criterion): the embedded LJ
// surrogate has geometry-independent charges, so the EE-MBE forces are
// exactly the energy gradient and a velocity-Verlet trajectory must
// conserve total energy to integrator accuracy. Also pins the
// StepStats.Drift wiring.
func TestNVEDriftWithEmbedding(t *testing.T) {
	g := molecule.WaterCluster(6)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2, DimerCutoff: 12})
	if err != nil {
		t.Fatal(err)
	}
	steps := 60
	if testing.Short() {
		steps = 25
	}
	run := func(dtFs float64, nSteps int) float64 {
		eng, err := New(f, ljEmbedEval(), Options{
			Workers: 4, Async: true, Dt: dtFs * chem.AtomicTimePerFs,
			Embed: &fragment.EmbedOptions{SCC: 1, Damping: 0.2},
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(60, rand.New(rand.NewSource(11)))
		stats, err := eng.Run(state, nSteps, nil)
		if err != nil {
			t.Fatal(err)
		}
		e0 := stats[0].Etot
		var maxDrift float64
		for _, st := range stats {
			if got := st.Etot - e0; math.Abs(got-st.Drift) > 1e-15 {
				t.Fatalf("step %d: Drift %.3e inconsistent with Etot−E0 %.3e", st.Step, st.Drift, got)
			}
			if d := math.Abs(st.Drift); d > maxDrift {
				maxDrift = d
			}
		}
		return maxDrift
	}
	// Bounded drift at 0.5 fs, and — the sharp conservation statement —
	// the envelope must shrink ~4× when dt halves over the same
	// simulated time: a nonconservative force component (e.g. a missing
	// field-force fold) leaves a dt-independent linear drift instead.
	d1 := run(0.5, steps)
	d2 := run(0.25, 2*steps)
	if d1 > 2e-6 {
		t.Fatalf("embedded NVE drift envelope %.3e Ha exceeds 2e-6", d1)
	}
	if d2 <= 0 || d1/d2 < 3 {
		t.Fatalf("drift not O(dt²): envelope %.3e at dt, %.3e at dt/2 (ratio %.2f, want ≈4)", d1, d2, d1/d2)
	}
	t.Logf("embedded NVE: drift envelope %.3e (dt=0.5fs) vs %.3e (dt=0.25fs), ratio %.2f", d1, d2, d1/d2)
}

// Warm-started embedded trajectories reproduce cold embedded energies:
// every polymer is re-evaluated in its current field each step, so no
// result from a stale charge environment is ever handed back.
func TestEmbeddedWarmTrajectoryMatchesCold(t *testing.T) {
	g := molecule.WaterCluster(4)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(warm bool) []StepStats {
		eng, err := New(f, ljEmbedEval(), Options{
			Workers: 2, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
			Embed:     &fragment.EmbedOptions{SCC: 1},
			WarmStart: warm,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(80, rand.New(rand.NewSource(3)))
		stats, err := eng.Run(state, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	cold := run(false)
	warm := run(true)
	for i := range cold {
		if d := math.Abs(cold[i].Epot - warm[i].Epot); d > 1e-9 {
			t.Errorf("step %d: warm embedded Epot deviates by %.2e", i, d)
		}
	}
}
