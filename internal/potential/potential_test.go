package potential

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/mp2"
	"github.com/fragmd/fragmd/internal/warmstart"
)

func TestLennardJonesGradientFD(t *testing.T) {
	g := molecule.WaterCluster(2)
	lj := &LennardJones{}
	_, grad, err := lj.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-6
	for _, idx := range []int{0, 4, 3*g.N() - 1} {
		atom, d := idx/3, idx%3
		gp := g.Clone()
		gp.Atoms[atom].Pos[d] += h
		gm := g.Clone()
		gm.Atoms[atom].Pos[d] -= h
		ep, _, _ := lj.Evaluate(gp)
		em, _, _ := lj.Evaluate(gm)
		fd := (ep - em) / (2 * h)
		if math.Abs(grad[idx]-fd) > 1e-9 {
			t.Errorf("LJ grad[%d]: %.12f vs FD %.12f", idx, grad[idx], fd)
		}
	}
}

func TestLennardJonesInvariance(t *testing.T) {
	g := molecule.WaterCluster(3)
	lj := &LennardJones{}
	e1, _, _ := lj.Evaluate(g)
	g2 := g.Clone()
	g2.Translate(3, -1, 2)
	g2.RotateZ(1.1)
	e2, _, _ := lj.Evaluate(g2)
	if math.Abs(e1-e2) > 1e-12 {
		t.Errorf("LJ energy not invariant: %g vs %g", e1, e2)
	}
}

// The HF and RIMP2 evaluators must agree with each other in the
// appropriate limits: RI-MP2 total < RI-HF total (correlation negative).
func TestEvaluatorHierarchy(t *testing.T) {
	g := molecule.Water()
	hf := &HF{UseRI: true}
	eHF, gradHF, err := hf.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	mp := &RIMP2{}
	eMP2, gradMP2, err := mp.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if eMP2 >= eHF {
		t.Errorf("MP2 total %.6f not below HF %.6f", eMP2, eHF)
	}
	if len(gradHF) != 3*g.N() || len(gradMP2) != 3*g.N() {
		t.Fatal("gradient lengths")
	}
}

// EvaluateFrom with a nil previous state must equal Evaluate exactly,
// and with the previous geometry's converged state it must reproduce
// the cold result while converging in strictly fewer SCF iterations —
// the warm-start contract of fragment.StatefulEvaluator.
func TestStatefulEvaluatorsWarmStart(t *testing.T) {
	g := molecule.Water()
	moved := g.Clone()
	moved.Atoms[1].Pos[0] += 0.015
	for _, tc := range []struct {
		name string
		eval interface {
			Evaluate(*molecule.Geometry) (float64, []float64, error)
			EvaluateFrom(*molecule.Geometry, *warmstart.State) (float64, []float64, *warmstart.State, error)
		}
	}{
		{"RIHF", &HF{UseRI: true}},
		{"RIMP2", &RIMP2{}},
	} {
		eCold, gCold, err := tc.eval.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		eFrom, gFrom, st, err := tc.eval.EvaluateFrom(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eCold-eFrom) > 1e-10 {
			t.Errorf("%s: EvaluateFrom(nil) energy %.12f != Evaluate %.12f", tc.name, eFrom, eCold)
		}
		for i := range gCold {
			if math.Abs(gCold[i]-gFrom[i]) > 1e-8 {
				t.Fatalf("%s: EvaluateFrom(nil) gradient differs at %d: %.12f vs %.12f",
					tc.name, i, gFrom[i], gCold[i])
			}
		}
		if st == nil || st.D == nil || st.SCFIters == 0 || !st.Compatible(g) {
			t.Fatalf("%s: state missing density, iteration count or atom list", tc.name)
		}

		eColdMoved, _, stCold, err := tc.eval.EvaluateFrom(moved, nil)
		if err != nil {
			t.Fatal(err)
		}
		eWarm, _, stWarm, err := tc.eval.EvaluateFrom(moved, st)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(eWarm - eColdMoved); d > 1e-8 {
			t.Errorf("%s: warm energy deviates by %.2e Ha", tc.name, d)
		}
		if stWarm.SCFIters >= stCold.SCFIters {
			t.Errorf("%s: warm iters %d not below cold %d", tc.name, stWarm.SCFIters, stCold.SCFIters)
		}
	}
}

// An incompatible previous state (different molecule) must be ignored:
// same result as a cold start, no error.
func TestWarmStartIncompatiblePrev(t *testing.T) {
	hf := &HF{UseRI: true}
	_, _, stWater, err := hf.EvaluateFrom(molecule.Water(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dimer := molecule.WaterDimer(3.0)
	eCold, _, stC, err := hf.EvaluateFrom(dimer, nil)
	if err != nil {
		t.Fatal(err)
	}
	eWarm, _, stW, err := hf.EvaluateFrom(dimer, stWater)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eCold-eWarm) > 1e-10 || stC.SCFIters != stW.SCFIters {
		t.Error("incompatible previous state was not ignored")
	}
}

// The LJ surrogate passes through: EvaluateFrom ignores prev and
// returns no state, vacuum or embedded — there is nothing to warm.
func TestLennardJonesEvaluateFrom(t *testing.T) {
	g := molecule.WaterCluster(2)
	lj := &LennardJones{}
	e1, g1, err := lj.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	e2, g2, st, err := lj.EvaluateFrom(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Errorf("pass-through energy %.12f != %.12f", e2, e1)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("pass-through gradient differs")
		}
	}
	if st != nil {
		t.Errorf("LJ state = %+v, want nil", st)
	}
	if _, _, _, st, _ := lj.EvaluateEmbedded(g, waterField(), nil); st != nil {
		t.Errorf("embedded LJ state = %+v, want nil", st)
	}
}

// SCS changes the energy but not the (plain-MP2) gradient.
func TestSCSEnergyOnly(t *testing.T) {
	g := molecule.Water()
	plain := &RIMP2{}
	scs := &RIMP2{SCS: true}
	e1, g1, err := plain.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	e2, g2, err := scs.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Error("SCS energy should differ from plain MP2")
	}
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-12 {
			t.Fatal("gradient should be the plain-MP2 gradient in both cases")
		}
	}
}

// A NaN coordinate must come back as an error naming the first matrix
// it poisoned, at once — not as a hundred eigensolver sweeps on a NaN
// metric followed by an SCF that iterates to its cap on garbage. "At
// once" is a work bound, not a wall-clock one: the rejection comes
// before the first GEMM, so the FLOP counter must not move, while the
// clean dimer's evaluation moves it by ~2e8.
func TestNonFiniteGeometryIsRejectedFast(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		g := molecule.WaterCluster(2)
		g.Atoms[4].Pos[1] = bad
		flops := linalg.FLOPs()
		_, _, err := (&RIMP2{}).Evaluate(g)
		if d := linalg.FLOPs() - flops; d != 0 {
			t.Errorf("coordinate %g: Evaluate ran %d GEMM FLOPs before rejecting, want 0", bad, d)
		}
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("coordinate %g: err = %v, want a non-finite-matrix error", bad, err)
		}
	}
	flops := linalg.FLOPs()
	if _, _, err := (&RIMP2{}).Evaluate(molecule.WaterCluster(2)); err != nil {
		t.Fatal(err)
	}
	if linalg.FLOPs() == flops {
		t.Error("a clean evaluation left the GEMM FLOP counter unchanged; the bound above checks nothing")
	}
}

// One RI-MP2 evaluation of a water dimer allocated 19 770 times while the
// RI contractions ran one auxiliary index at a time on fresh temporaries;
// batched on the per-evaluation workspaces it must stay under half that.
func TestRIMP2EvaluateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("three RI-MP2 dimer evaluations; the -short suite runs under the race detector, which allocates on its own")
	}
	g := molecule.WaterCluster(2)
	p := &RIMP2{Basis: "sto-3g"}
	allocs := testing.AllocsPerRun(2, func() {
		if _, _, err := p.Evaluate(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 19770/2 {
		t.Errorf("%.0f allocations per dimer evaluation, want ≤ %d", allocs, 19770/2)
	}
	t.Logf("%.0f allocations per water-dimer RIMP2.Evaluate", allocs)
}

// One evaluation runs two pairs of phases side by side: the RI metric
// and its factor beside the three-center integrals and the one-electron
// set-up, and the one-electron derivatives beside the RI derivative
// chain. Each piece writes outputs of its own and the gradient folds them
// in a fixed order, so five evaluations of the sto-3g trimer at
// GOMAXPROCS 2 repeat energy, gradient and field-site gradient bit for
// bit, and the energy is GOMAXPROCS 1's to the bit. In a point-charge
// field the one-electron piece also writes the field-site gradient. Under
// -race, a piece that wrote what the other one reads fails here. The
// scf.DF auxiliary blocks are a function of the shapes alone, so the SCF
// and Z-vector iteration counts are the same at both GOMAXPROCS, and the
// ones recorded before the blocks landed: 12 and 11, in vacuum and in
// the field. Each evaluation makes the calls RIMP2.EvaluateEmbedded makes,
// so the counts can be read.
func TestBatchedPhaseOverlapRepeatsBits(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve RI-MP2 trimer evaluations; CI runs this in full under -race")
	}
	g := molecule.WaterCluster(3)
	field := &integrals.PointCharges{
		Pos: []float64{11, 2, 2, -6, 3, 1, 2, -6, 9},
		Q:   []float64{0.35, -0.3, 0.22},
	}
	const scfIters, zvecIters = 12, 11
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pc := range []*integrals.PointCharges{nil, field} {
		name := "vacuum"
		if pc != nil {
			name = "field"
		}
		eval := func(procs int) (float64, []float64, []float64) {
			runtime.GOMAXPROCS(procs)
			ref, _, err := (&RIMP2{Basis: "sto-3g"}).hf().run(g, pc, nil)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			r, err := mp2.RIMP2(ref, mp2.Options{})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			grad, site, err := r.Gradients()
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if ref.Iters != scfIters || r.ZVecIters != zvecIters {
				t.Errorf("%s at GOMAXPROCS %d: %d SCF and %d Z-vector iterations, want %d and %d",
					name, procs, ref.Iters, r.ZVecIters, scfIters, zvecIters)
			}
			return r.ETotal, grad, site
		}
		e1, grad1, _ := eval(1)
		e, grad, site := eval(2)
		if math.Float64bits(e) != math.Float64bits(e1) {
			t.Errorf("%s: energy %.17g at GOMAXPROCS 2, %.17g at 1", name, e, e1)
		}
		for i := range grad {
			if d := math.Abs(grad[i] - grad1[i]); d > 1e-13 {
				t.Errorf("%s: gradient[%d] %.17g at GOMAXPROCS 2, %.17g at 1 (|Δ| = %.1e > 1e-13)", name, i, grad[i], grad1[i], d)
			}
		}
		if (site != nil) != (pc != nil) {
			t.Fatalf("%s: field-site gradient %v", name, site)
		}
		for rep := 1; rep < 5; rep++ {
			er, gradr, siter := eval(2)
			if math.Float64bits(er) != math.Float64bits(e) || !sameBits(gradr, grad) || !sameBits(siter, site) {
				t.Errorf("%s: evaluation %d at GOMAXPROCS 2 differs from the first in its bits", name, rep+1)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The Cholesky-route metric factor (linalg.MetricFactor) against the
// eigen-route it replaced: testdata/eigen_route_oracle.json holds the
// RI-MP2/sto-3g energy and gradient of molecule.WaterCluster(1..3) as
// RIMP2.Evaluate returned them while scf.RHF still built B from
// linalg.InvSqrtSym(J, 1e-10) (commit 3cb5c3e, go1.24, amd64). Both routes
// project the same 1/2/4 near-null directions out of a metric of condition
// 1e11, so they agree to the noise of those directions, not to the bit.
func TestMetricFactorMatchesEigenRouteOracle(t *testing.T) {
	data, err := os.ReadFile("testdata/eigen_route_oracle.json")
	if err != nil {
		t.Fatal(err)
	}
	var oracle []struct {
		Waters   int       `json:"waters"`
		EnergyHa float64   `json:"energy_ha"`
		Gradient []float64 `json:"gradient_ha_per_bohr"`
	}
	if err := json.Unmarshal(data, &oracle); err != nil {
		t.Fatal(err)
	}
	if len(oracle) != 3 {
		t.Fatalf("%d oracle entries, want monomer, dimer and trimer", len(oracle))
	}
	for _, want := range oracle {
		e, grad, err := (&RIMP2{Basis: "sto-3g"}).Evaluate(molecule.WaterCluster(want.Waters))
		if err != nil {
			t.Fatalf("%d waters: %v", want.Waters, err)
		}
		if d := math.Abs(e - want.EnergyHa); d > 2e-9 {
			t.Errorf("%d waters: energy %.12f, eigen-route %.12f (|Δ| = %.2e > 2e-9 Ha)", want.Waters, e, want.EnergyHa, d)
		}
		if len(grad) != len(want.Gradient) {
			t.Fatalf("%d waters: %d gradient components, oracle has %d", want.Waters, len(grad), len(want.Gradient))
		}
		for i, x := range grad {
			if d := math.Abs(x - want.Gradient[i]); d > 1e-9 {
				t.Errorf("%d waters: gradient[%d] = %.12f, eigen-route %.12f (|Δ| = %.2e > 1e-9 Ha/bohr)", want.Waters, i, x, want.Gradient[i], d)
			}
		}
	}
}
