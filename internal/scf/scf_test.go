package scf

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

func runRHF(t *testing.T, g *molecule.Geometry, bsName string, useRI bool) *Result {
	t.Helper()
	bs, err := basis.Build(bsName, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RHF(g, bs, Options{UseRI: useRI})
	if err != nil {
		t.Fatalf("RHF failed: %v", err)
	}
	return res
}

// He/STO-3G is a geometry-free external anchor: E = −2.807784 Ha.
func TestHeliumAnchor(t *testing.T) {
	g := molecule.New()
	g.AddAtom(2, 0, 0, 0)
	res := runRHF(t, g, "sto-3g", false)
	if math.Abs(res.Energy-(-2.807784)) > 1e-5 {
		t.Errorf("He/STO-3G E = %.6f, want −2.807784", res.Energy)
	}
}

// H2 at R = 1.4 Bohr, STO-3G: E = −1.1167 Ha (Szabo & Ostlund §3.5.2:
// E_elec = −1.8310, E_nuc = 1/1.4).
func TestH2Anchor(t *testing.T) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(1, 0, 0, 1.4)
	res := runRHF(t, g, "sto-3g", false)
	if math.Abs(res.Energy-(-1.1167)) > 1e-4 {
		t.Errorf("H2/STO-3G E = %.6f, want −1.1167", res.Energy)
	}
	if res.NOcc != 1 {
		t.Errorf("NOcc = %d, want 1", res.NOcc)
	}
}

// Water/STO-3G at the experimental geometry: E ≈ −74.9630 Ha.
func TestWaterAnchor(t *testing.T) {
	res := runRHF(t, molecule.Water(), "sto-3g", false)
	if math.Abs(res.Energy-(-74.963)) > 5e-3 {
		t.Errorf("H2O/STO-3G E = %.5f, want ≈ −74.963", res.Energy)
	}
}

// The RI energy must track the conventional energy closely, and improve
// as the auxiliary basis grows.
func TestRIMatchesConventional(t *testing.T) {
	g := molecule.Water()
	conv := runRHF(t, g, "sto-3g", false)
	bs, _ := basis.Build("sto-3g", g)

	small, err := RHF(g, bs, Options{UseRI: true, AuxOpts: basis.AuxOptions{PerL: []int{4, 3, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RHF(g, bs, Options{UseRI: true, AuxOpts: basis.AuxOptions{PerL: []int{12, 9, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	errSmall := math.Abs(small.Energy - conv.Energy)
	errLarge := math.Abs(large.Energy - conv.Energy)
	if errLarge > 2e-3 {
		t.Errorf("RI(large aux) error %.2e > 2e-3 Ha", errLarge)
	}
	if errLarge > errSmall+1e-6 {
		t.Errorf("larger aux basis did not improve RI error: %.2e vs %.2e", errLarge, errSmall)
	}
}

// Density matrix invariants: idempotency D S D = 2 D, trace = N electrons.
func TestDensityInvariants(t *testing.T) {
	g := molecule.Water()
	res := runRHF(t, g, "sto-3g", true)
	ds := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, res.D, res.S)
	tr := ds.Trace()
	if math.Abs(tr-float64(g.NumElectrons())) > 1e-8 {
		t.Errorf("tr(DS) = %.8f, want %d", tr, g.NumElectrons())
	}
	dsd := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, ds, res.D)
	for i := range dsd.Data {
		if math.Abs(dsd.Data[i]-2*res.D.Data[i]) > 1e-7 {
			t.Fatal("density not idempotent: DSD != 2D")
		}
	}
}

// Orbital energies must satisfy the aufbau gap and Koopmans sanity
// (HOMO below zero for a stable closed-shell molecule).
func TestOrbitalEnergies(t *testing.T) {
	res := runRHF(t, molecule.Water(), "sto-3g", false)
	homo := res.Eps[res.NOcc-1]
	lumo := res.Eps[res.NOcc]
	if homo >= lumo {
		t.Errorf("HOMO %.4f >= LUMO %.4f", homo, lumo)
	}
	if homo > 0 {
		t.Errorf("HOMO %.4f > 0 for water", homo)
	}
}

// fdGradient computes the central-difference gradient of the total HF
// energy for the given backend.
func fdGradient(t *testing.T, g *molecule.Geometry, useRI bool, auxOpts basis.AuxOptions, h float64) []float64 {
	t.Helper()
	energy := func(gg *molecule.Geometry) float64 {
		bs, err := basis.Build("sto-3g", gg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RHF(gg, bs, Options{UseRI: useRI, AuxOpts: auxOpts, ConvE: 1e-12, ConvErr: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	grad := make([]float64, 3*g.N())
	for i := range g.Atoms {
		for d := 0; d < 3; d++ {
			gp := g.Clone()
			gp.Atoms[i].Pos[d] += h
			gm := g.Clone()
			gm.Atoms[i].Pos[d] -= h
			grad[3*i+d] = (energy(gp) - energy(gm)) / (2 * h)
		}
	}
	return grad
}

// The injected guess density (warm start) must not change the converged
// result — only shrink the iteration count. Checked on both Fock-build
// back ends, starting from the converged density of a slightly
// different geometry, as in consecutive AIMD steps.
func TestGuessDensityWarmStart(t *testing.T) {
	g := molecule.Water()
	for _, useRI := range []bool{false, true} {
		bs, _ := basis.Build("sto-3g", g)
		prev, err := RHF(g, bs, Options{UseRI: useRI})
		if err != nil {
			t.Fatal(err)
		}
		moved := g.Clone()
		moved.Atoms[0].Pos[0] += 0.01
		moved.Atoms[2].Pos[1] -= 0.008
		bs2, _ := basis.Build("sto-3g", moved)
		cold, err := RHF(moved, bs2, Options{UseRI: useRI})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := RHF(moved, bs2, Options{UseRI: useRI, GuessDensity: prev.D})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Converged {
			t.Fatalf("useRI=%v: warm-started SCF did not converge", useRI)
		}
		if d := math.Abs(warm.Energy - cold.Energy); d > 1e-8 {
			t.Errorf("useRI=%v: warm energy deviates by %.2e Ha", useRI, d)
		}
		if warm.Iters >= cold.Iters {
			t.Errorf("useRI=%v: warm iters %d not below cold %d", useRI, warm.Iters, cold.Iters)
		}
		// Supplying the MO coefficients alongside the density (the fast
		// path that skips the spectral decomposition) must behave the
		// same: C·Cᵀ over the occupied block equals D/2 exactly.
		warmC, err := RHF(moved, bs2, Options{UseRI: useRI, GuessDensity: prev.D, GuessC: prev.C})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warmC.Energy - cold.Energy); d > 1e-8 {
			t.Errorf("useRI=%v: GuessC warm energy deviates by %.2e Ha", useRI, d)
		}
		if warmC.Iters >= cold.Iters {
			t.Errorf("useRI=%v: GuessC warm iters %d not below cold %d", useRI, warmC.Iters, cold.Iters)
		}
	}
}

// A wrongly-dimensioned guess must be ignored, not crash or corrupt.
func TestGuessDensityDimensionMismatch(t *testing.T) {
	g := molecule.Water()
	bs, _ := basis.Build("sto-3g", g)
	bad := linalg.NewMat(2, 2)
	res, err := RHF(g, bs, Options{UseRI: true, GuessDensity: bad})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-(-74.963)) > 5e-3 {
		t.Errorf("energy %.5f with ignored guess, want ≈ −74.963", res.Energy)
	}
}

func TestConventionalGradientFD(t *testing.T) {
	if testing.Short() {
		t.Skip("finite-difference gradient of conventional SCF is slow; run without -short")
	}
	g := molecule.Water()
	bs, _ := basis.Build("sto-3g", g)
	res, err := RHF(g, bs, Options{ConvE: 1e-12, ConvErr: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Gradient()
	want := fdGradient(t, g, false, basis.AuxOptions{}, 1e-4)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 5e-7 {
			t.Errorf("conventional grad[%d]: analytic %.9f vs FD %.9f", i, got[i], want[i])
		}
	}
}

func TestRIGradientFD(t *testing.T) {
	g := molecule.Water()
	auxOpts := basis.AuxOptions{PerL: []int{5, 4, 3}}
	bs, _ := basis.Build("sto-3g", g)
	res, err := RHF(g, bs, Options{UseRI: true, AuxOpts: auxOpts, ConvE: 1e-12, ConvErr: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Gradient()
	// FD of the *same RI functional*: analytic and FD must agree to FD
	// accuracy, independent of auxiliary basis quality.
	want := fdGradient(t, g, true, auxOpts, 1e-4)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 5e-7 {
			t.Errorf("RI grad[%d]: analytic %.9f vs FD %.9f", i, got[i], want[i])
		}
	}
}

// The gradient of a rigid system must sum to zero (no net force).
func TestGradientTranslationalSumRule(t *testing.T) {
	g := molecule.WaterDimer(3.0)
	bs, _ := basis.Build("sto-3g", g)
	res, err := RHF(g, bs, Options{UseRI: true})
	if err != nil {
		t.Fatal(err)
	}
	grad := res.Gradient()
	for d := 0; d < 3; d++ {
		var s float64
		for i := 0; i < g.N(); i++ {
			s += grad[3*i+d]
		}
		if math.Abs(s) > 1e-7 {
			t.Errorf("net force along %d = %.2e, want 0", d, s)
		}
	}
}

func TestOddElectronRejected(t *testing.T) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	bs, _ := basis.Build("sto-3g", g)
	if _, err := RHF(g, bs, Options{}); err == nil {
		t.Fatal("expected error for odd electron count")
	}
}

// An eigensolver failure inside the SCF — here a NaN guess density, the
// one matrix RHF diagonalises without a finiteness check of its own —
// must come back as an error naming the matrix, not as a NaN spectrum
// iterated to maxIter.
func TestEigensolverFailureIsAnError(t *testing.T) {
	g := molecule.Water()
	bs, _ := basis.Build("sto-3g", g)
	bad := linalg.NewMat(bs.N, bs.N)
	bad.Set(1, 2, math.NaN())
	_, err := RHF(g, bs, Options{UseRI: true, GuessDensity: bad})
	if err == nil || !strings.Contains(err.Error(), "eigensolver failed on the guess density") {
		t.Fatalf("NaN guess density: err = %v, want an eigensolver failure naming the guess density", err)
	}
	if err := eigFailed("Fock matrix", []float64{math.NaN(), math.NaN()}); err == nil {
		t.Error("an all-NaN spectrum was not reported")
	}
	if err := eigFailed("Fock matrix", []float64{-1, 2}); err != nil {
		t.Errorf("a finite spectrum was reported: %v", err)
	}
}

// waterMetric returns the RI Coulomb metric (P|Q) of one water, sto-3g.
func waterMetric(t *testing.T) *linalg.Mat {
	t.Helper()
	g := molecule.Water()
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		t.Fatal(err)
	}
	return integrals.TwoCenter(basis.BuildAux(bs, g, basis.AuxOptions{}))
}

// A metric with an auxiliary function entered twice is exactly
// semidefinite: there is no Cholesky factor, and the factor must come from
// the eigen-route, which projects the duplicate out with the near-null
// directions.
func TestMetricFactorFallsBackOnSingularMetric(t *testing.T) {
	j := waterMetric(t)
	n := j.Rows
	const dup = 17
	sing := linalg.NewMat(n+1, n+1)
	src := func(i int) int {
		if i == n {
			return dup
		}
		return i
	}
	for p := 0; p <= n; p++ {
		for q := 0; q <= n; q++ {
			sing.Set(p, q, j.At(src(p), src(q)))
		}
	}
	if _, _, err := linalg.MetricFactor(sing, 1e-10); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("MetricFactor on the duplicated metric: err = %v, want ErrSingular", err)
	}
	w, dropped, err := riMetricFactor(sing)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := linalg.InvSqrtSym(sing, 1e-10); !slices.Equal(w.Data, x.Data) {
		t.Error("the fallback factor is not InvSqrtSym of the metric")
	}
	// One water drops one direction; the duplicate is a second.
	if dropped != 2 {
		t.Errorf("the fallback dropped %d directions, want 2", dropped)
	}
	wj := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, w, sing)
	if tr, want := linalg.MatMul(linalg.NoTrans, linalg.Trans, wj, w).Trace(), float64(n+1-2); math.Abs(tr-want) > 1e-6 {
		t.Errorf("tr(W·J·Wᵀ) = %.9f, want %g", tr, want)
	}
}

// A factorisation that cannot be trusted is an error naming the RI
// metric, never a B tensor built from a wrong factor: an inverse subspace
// iteration that runs into its cap, and a factor that is not finite.
func TestMetricFactorFailureIsAnError(t *testing.T) {
	// Forty eigenvalues within ±1 % of the drop threshold — a tridiagonal
	// block under one unit eigenvalue: too many for the iteration's block,
	// too close together to separate.
	const n = 41
	clustered := linalg.NewMat(n, n)
	clustered.Set(0, 0, 1)
	for i := 1; i < n; i++ {
		clustered.Set(i, i, 1e-10)
		if i > 1 {
			clustered.Set(i, i-1, 5e-13)
			clustered.Set(i-1, i, 5e-13)
		}
	}
	_, _, err := riMetricFactor(clustered)
	if !errors.Is(err, linalg.ErrNoConvergence) || !strings.HasPrefix(err.Error(), "scf: ") || !strings.Contains(err.Error(), "RI Coulomb metric") {
		t.Errorf("clustered spectrum: err = %v, want an scf error naming the RI metric that wraps ErrNoConvergence", err)
	}

	nan := waterMetric(t)
	nan.Set(3, 9, math.NaN())
	nan.Set(9, 3, math.NaN())
	if _, _, err := riMetricFactor(nan); err == nil || !strings.Contains(err.Error(), "RI Coulomb metric") {
		t.Errorf("NaN entry: err = %v, want an error naming the RI metric", err)
	}
}
