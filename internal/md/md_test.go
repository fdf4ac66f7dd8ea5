package md

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

func ljProvider() ForceProvider {
	lj := &potential.LennardJones{}
	return ForceFunc(func(g *molecule.Geometry) (float64, []float64, error) {
		return lj.Evaluate(g)
	})
}

func TestHarmonicOscillatorPeriod(t *testing.T) {
	// Two unit-mass-ish particles on a harmonic spring integrate with a
	// known period; velocity Verlet must track it.
	k := 0.5
	r0 := 2.0
	provider := ForceFunc(func(g *molecule.Geometry) (float64, []float64, error) {
		r := g.Dist(0, 1)
		e := 0.5 * k * (r - r0) * (r - r0)
		grad := make([]float64, 6)
		for d := 0; d < 3; d++ {
			u := (g.Atoms[0].Pos[d] - g.Atoms[1].Pos[d]) / r
			grad[d] = k * (r - r0) * u
			grad[3+d] = -k * (r - r0) * u
		}
		return e, grad, nil
	})
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(1, 0, 0, r0+0.1)
	s := NewState(g)
	m := s.Masses[0]
	// Reduced mass μ = m/2; ω = sqrt(k/μ).
	omega := math.Sqrt(k / (m / 2))
	period := 2 * math.Pi / omega
	dt := period / 400
	steps := 401 // one full period
	var traj []float64
	vv := &VelocityVerlet{Dt: dt, Provider: provider}
	if err := vv.Run(s, steps, func(si StepInfo) { traj = append(traj, si.Epot) }); err != nil {
		t.Fatal(err)
	}
	// After one period the bond length returns to the start.
	if d := math.Abs(g.Dist(0, 1) - (r0 + 0.1)); d > 1e-3 {
		t.Errorf("period mismatch: Δr = %.5f", d)
	}
	// Energy conserved.
	if math.Abs(traj[0]-traj[len(traj)-1]) > 1e-6 {
		t.Errorf("potential at period endpoints differ: %g vs %g", traj[0], traj[len(traj)-1])
	}
}

func TestNVEConservationLJ(t *testing.T) {
	g := molecule.WaterCluster(4)
	s := NewState(g)
	s.SampleVelocities(150, rand.New(rand.NewSource(1)))
	obs, stats := NewConservationTracker()
	vv := &VelocityVerlet{Dt: 0.5 * chem.AtomicTimePerFs, Provider: ljProvider()}
	if err := vv.Run(s, 100, obs); err != nil {
		t.Fatal(err)
	}
	st := stats()
	if st.N != 100 {
		t.Fatalf("observer fired %d times, want 100", st.N)
	}
	if st.MaxDrift > 1e-5 {
		t.Errorf("energy drift %.2e too large for LJ NVE", st.MaxDrift)
	}
}

func TestDriftRemovalAndTemperature(t *testing.T) {
	g := molecule.WaterCluster(3)
	s := NewState(g)
	s.SampleVelocities(300, rand.New(rand.NewSource(2)))
	var p [3]float64
	for i, v := range s.Vel {
		for k := 0; k < 3; k++ {
			p[k] += s.Masses[i] * v[k]
		}
	}
	for k := 0; k < 3; k++ {
		if math.Abs(p[k]) > 1e-9 {
			t.Errorf("net momentum component %d = %g", k, p[k])
		}
	}
	temp := s.Temperature()
	if temp < 100 || temp > 600 {
		t.Errorf("sampled temperature %g K implausible for 300 K target", temp)
	}
}

func TestTimeStepValidation(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		vv := &VelocityVerlet{Dt: dt, Provider: ljProvider()}
		if err := vv.Run(NewState(molecule.Water()), 5, nil); err == nil {
			t.Errorf("expected error for time step %g", dt)
		}
	}
}

func TestEnergyConservationDegradesWithTimestep(t *testing.T) {
	run := func(dtFs float64) float64 {
		g := molecule.WaterCluster(3)
		s := NewState(g)
		s.SampleVelocities(200, rand.New(rand.NewSource(3)))
		obs, stats := NewConservationTracker()
		vv := &VelocityVerlet{Dt: dtFs * chem.AtomicTimePerFs, Provider: ljProvider()}
		if err := vv.Run(s, 60, obs); err != nil {
			t.Fatal(err)
		}
		return stats().RMS
	}
	small := run(0.25)
	large := run(4.0)
	if large <= small {
		t.Errorf("RMS fluctuation should grow with dt: %.3e (0.25fs) vs %.3e (4fs)", small, large)
	}
}

// Forces count only where they were taken: ForcesHere returns them at
// the exact positions of At and nowhere else, and a clone's forces are
// its own.
func TestForcesHere(t *testing.T) {
	s := NewState(molecule.Water())
	if s.ForcesHere() != nil {
		t.Fatal("a new state has forces")
	}
	at := make([]float64, 0, 9)
	for _, a := range s.Geom.Atoms {
		at = append(at, a.Pos[:]...)
	}
	s.Forces = &Forces{Epot: -1, Grad: make([]float64, 9), At: at}
	if s.ForcesHere() != s.Forces {
		t.Fatal("forces at the current positions not returned")
	}
	c := s.Clone()
	c.Forces.Grad[0], c.Forces.At[0] = 7, 7
	if s.Forces.Grad[0] == 7 || s.Forces.At[0] == 7 {
		t.Error("Clone shares the forces' slices")
	}
	if c.ForcesHere() != nil {
		t.Error("forces taken elsewhere returned")
	}
	s.Geom.Atoms[1].Pos[2] = math.Nextafter(s.Geom.Atoms[1].Pos[2], 1)
	if s.ForcesHere() != nil {
		t.Error("forces returned after a one-ulp move")
	}
}
