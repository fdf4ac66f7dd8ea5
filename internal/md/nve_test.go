package md_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fragmd/fragmd/internal/racecheck"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
)

// nveMaxDrift integrates an NVE trajectory with the reference
// velocity-Verlet integrator and returns the max |E(t) − E(0)|.
func nveMaxDrift(t *testing.T, prov md.ForceProvider, g *molecule.Geometry, dtFs float64, steps int, tempK float64, seed int64) float64 {
	t.Helper()
	drift, _ := nveDriftAndJump(t, prov, g, dtFs, steps, tempK, seed)
	return drift
}

// nveDriftAndJump is nveMaxDrift that also returns the largest
// step-to-step change max |E(t) − E(t−1)|.
func nveDriftAndJump(t *testing.T, prov md.ForceProvider, g *molecule.Geometry, dtFs float64, steps int, tempK float64, seed int64) (drift, jump float64) {
	t.Helper()
	state := md.NewState(g.Clone())
	state.SampleVelocities(tempK, rand.New(rand.NewSource(seed)))
	track, get := md.NewConservationTracker()
	prev := math.NaN()
	obs := func(si md.StepInfo) {
		track(si)
		if !math.IsNaN(prev) {
			jump = math.Max(jump, math.Abs(si.Etot-prev))
		}
		prev = si.Etot
	}
	vv := &md.VelocityVerlet{Dt: dtFs * chem.AtomicTimePerFs, Provider: prov}
	if err := vv.Run(state, steps, obs); err != nil {
		t.Fatal(err)
	}
	st := get()
	if st.N != steps {
		t.Fatalf("tracker saw %d steps, want %d", st.N, steps)
	}
	return st.MaxDrift, jump
}

// Full-length LJ NVE: the drift envelope must be bounded and shrink
// ~4× when the time step halves over the same simulated time — the
// O(dt²) signature of a symplectic integrator fed exact gradients. A
// force/energy inconsistency would leave a dt-independent linear
// drift instead.
func TestNVEConservationLJ(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 120
	}
	g := molecule.WaterCluster(8)
	lj := &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
	prov := md.ForceFunc(lj.Evaluate)
	d1 := nveMaxDrift(t, prov, g, 0.5, steps, 100, 7)
	d2 := nveMaxDrift(t, prov, g, 0.25, 2*steps, 100, 7)
	if d1 > 5e-6 {
		t.Fatalf("LJ NVE drift %.3e Ha over %d steps exceeds 5e-6", d1, steps)
	}
	if d2 <= 0 || d1/d2 < 3 {
		t.Fatalf("drift not O(dt²): %.3e at dt vs %.3e at dt/2 (ratio %.2f)", d1, d2, d1/d2)
	}
	t.Logf("LJ NVE: %d steps, drift %.3e (dt=0.5fs) vs %.3e (dt=0.25fs), ratio %.2f", steps, d1, d2, d1/d2)
}

// Periodic LJ NVE: the same O(dt²) signature on a minimum-image water
// box. The whole-system LJ force uses Geometry.Displacement, so every
// pair interacts through its nearest periodic image; if the min-image
// gradient were inconsistent with the min-image energy (e.g. the force
// direction not folded with the distance), the drift would be linear
// and dt-independent instead of shrinking ~4× at dt/2. The 3×3×3 box
// keeps every pair component ~1.5 Å clear of the ±L/2 image-branch
// boundary, so the trajectory never crosses a min-image kink.
func TestNVEConservationPeriodicLJ(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 120
	}
	g := molecule.WaterBox(3, 3, 3, 1)
	lj := &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}
	prov := md.ForceFunc(lj.Evaluate)
	d1 := nveMaxDrift(t, prov, g, 0.5, steps, 100, 7)
	d2 := nveMaxDrift(t, prov, g, 0.25, 2*steps, 100, 7)
	if d1 > 5e-6 {
		t.Fatalf("periodic LJ NVE drift %.3e Ha over %d steps exceeds 5e-6", d1, steps)
	}
	if d2 <= 0 || d1/d2 < 3 {
		t.Fatalf("drift not O(dt²): %.3e at dt vs %.3e at dt/2 (ratio %.2f)", d1, d2, d1/d2)
	}
	t.Logf("periodic LJ NVE: %d steps, drift %.3e (dt=0.5fs) vs %.3e (dt=0.25fs), ratio %.2f", steps, d1, d2, d1/d2)
}

// HF smoke: a handful of ab initio NVE steps on one water molecule.
// The stiff O–H modes put the velocity-Verlet oscillation near 1e-5 Ha
// at this dt, so the sharp assertion is the O(dt²) signature: halving
// the step over the same simulated time must shrink the envelope ~4×,
// which only happens when the analytic gradient is the exact
// derivative of the energy (a broken term leaves dt-independent
// drift).
func TestNVEConservationHFSmoke(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	steps := 8
	if testing.Short() {
		steps = 5
	}
	hf := &potential.HF{UseRI: true}
	prov := md.ForceFunc(hf.Evaluate)
	d1 := nveMaxDrift(t, prov, molecule.Water(), 0.25, steps, 150, 3)
	d2 := nveMaxDrift(t, prov, molecule.Water(), 0.125, 2*steps, 150, 3)
	if d1 > 5e-5 {
		t.Fatalf("HF NVE drift %.3e Ha over %d steps exceeds 5e-5", d1, steps)
	}
	if d2 <= 0 || d1/d2 < 2.5 {
		t.Fatalf("drift not O(dt²): %.3e at dt vs %.3e at dt/2 (ratio %.2f)", d1, d2, d1/d2)
	}
	t.Logf("HF NVE smoke: %d steps, drift %.3e vs %.3e at dt/2, ratio %.2f", steps, d1, d2, d1/d2)
}

// The same holds for an *embedded* whole-system force: water in a
// static external charge field (field fixed in space, charges frozen)
// is a conservative system, and the embedded HF gradient must conserve
// its energy.
func TestNVEConservationHFEmbeddedSmoke(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	steps := 6
	if testing.Short() {
		steps = 4
	}
	hf := &potential.HF{UseRI: true}
	field := &integrals.PointCharges{
		Pos: []float64{5.0, 0.8, -0.6, -4.4, 2.2, 1.3},
		Q:   []float64{0.3, -0.25},
	}
	prov := md.ForceFunc(func(g *molecule.Geometry) (float64, []float64, error) {
		e, grad, _, _, err := hf.EvaluateEmbedded(g, field, nil)
		return e, grad, err
	})
	d1 := nveMaxDrift(t, prov, molecule.Water(), 0.25, steps, 150, 3)
	d2 := nveMaxDrift(t, prov, molecule.Water(), 0.125, 2*steps, 150, 3)
	if d1 > 5e-5 {
		t.Fatalf("embedded HF NVE drift %.3e Ha over %d steps exceeds 5e-5", d1, steps)
	}
	if d2 <= 0 || d1/d2 < 2.5 {
		t.Fatalf("drift not O(dt²): %.3e at dt vs %.3e at dt/2 (ratio %.2f)", d1, d2, d1/d2)
	}
	t.Logf("embedded HF NVE smoke: %d steps, drift %.3e vs %.3e at dt/2, ratio %.2f", steps, d1, d2, d1/d2)
}

// dzp RI-MP2 NVE on an unfragmented water dimer: the trust anchor for
// the RI-MP2 gradient at the basis the dzp cost rows run. The dzp
// auxiliary metric drops directions (21 on this dimer), so a gradient
// that is not the derivative of the energy — an inconsistent coefficient
// or a discontinuous RI surface — shows here as dt-independent drift
// instead of the ~4× shrink at dt/2, or as a step-to-step jump past the
// bound. Measured at 16 steps of 0.25 fs (150 K, seed 3): drift 1.07e-5
// vs 2.82e-6 at dt/2 (ratio 3.8), largest step-to-step |ΔEtot| 3.5e-6 Ha
// at 0.25 fs. The dzp RI energy itself moves by ~1e-6 Ha under 1e-14
// Bohr displacements (the near-singular metric), so the jump bound is
// twice that measured value, not a tolerance on bits.
func TestNVEConservationRIMP2DZP(t *testing.T) {
	if testing.Short() {
		t.Skip("dzp RI-MP2 trajectory; runs in the full suite")
	}
	if racecheck.Enabled {
		t.Skip("pure-numerical suite; adds no race coverage and is slow under -race")
	}
	const steps = 16
	prov := md.ForceFunc((&potential.RIMP2{Basis: "dzp"}).Evaluate)
	g := molecule.WaterDimer(2.98)
	d1, j1 := nveDriftAndJump(t, prov, g, 0.25, steps, 150, 3)
	d2, j2 := nveDriftAndJump(t, prov, g, 0.125, 2*steps, 150, 3)
	t.Logf("dzp RI-MP2 NVE: %d steps, drift %.3e vs %.3e at dt/2 (ratio %.2f), max |ΔEtot| per step %.3e vs %.3e",
		steps, d1, d2, d1/d2, j1, j2)
	if d1 > 5e-5 {
		t.Fatalf("dzp RI-MP2 NVE drift %.3e Ha over %d steps exceeds 5e-5", d1, steps)
	}
	if d2 <= 0 || d1/d2 < 2.5 {
		t.Fatalf("drift not O(dt²): %.3e at dt vs %.3e at dt/2 (ratio %.2f)", d1, d2, d1/d2)
	}
	if j1 > 7e-6 {
		t.Fatalf("step-to-step |ΔEtot| %.3e Ha at 0.25 fs exceeds 7e-6", j1)
	}
}

// Sanity on the tracker itself.
func TestConservationTrackerStats(t *testing.T) {
	obs, get := md.NewConservationTracker()
	for _, e := range []float64{1.0, 1.5, 0.5} {
		obs(md.StepInfo{Etot: e})
	}
	st := get()
	if st.E0 != 1.0 || math.Abs(st.MaxDrift-0.5) > 1e-15 || st.N != 3 {
		t.Fatalf("tracker stats wrong: %+v", st)
	}
}
