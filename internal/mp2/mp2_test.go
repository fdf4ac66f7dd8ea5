package mp2

import (
	"math"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/scf"

	"github.com/fragmd/fragmd/internal/molecule"
)

var bigAux = basis.AuxOptions{PerL: []int{12, 9, 7}}
var smallAux = basis.AuxOptions{PerL: []int{5, 4, 3}}

func runSCF(t *testing.T, g *molecule.Geometry, useRI bool, aux basis.AuxOptions) *scf.Result {
	t.Helper()
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scf.RHF(g, bs, scf.Options{UseRI: useRI, AuxOpts: aux, ConvE: 1e-12, ConvErr: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A conventional reference (scf.Result.DF nil) has no B to transform:
// both RI entry points must say so instead of dereferencing it.
func TestConventionalReferenceIsRefused(t *testing.T) {
	ref := runSCF(t, molecule.Water(), false, basis.AuxOptions{})
	if _, err := RIMP2(ref, Options{}); err == nil {
		t.Error("RIMP2 accepted a reference without RI intermediates")
	}
	if _, _, err := (&Result{SCF: ref}).Gradients(); err == nil {
		t.Error("Gradients accepted a reference without RI intermediates")
	}
}

// H2/STO-3G is small enough for a pencil-and-paper MP2 check: one
// occupied, one virtual orbital, E2 = (ov|ov)²/(2ε_o − 2ε_v).
func TestH2MP2ClosedForm(t *testing.T) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(1, 0, 0, 1.4)
	ref := runSCF(t, g, false, basis.AuxOptions{})
	eri := integrals.FourCenterAll(ref.Bs)
	e2, err := ConventionalMP2(ref, eri)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form from MO integrals.
	n := ref.Bs.N
	var ovov float64
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			for la := 0; la < n; la++ {
				for si := 0; si < n; si++ {
					ovov += ref.C.At(mu, 0) * ref.C.At(nu, 1) * ref.C.At(la, 0) * ref.C.At(si, 1) *
						eri[integrals.ERIIndex(n, mu, nu, la, si)]
				}
			}
		}
	}
	want := ovov * ovov / (2*ref.Eps[0] - 2*ref.Eps[1])
	if math.Abs(e2-want) > 1e-10 {
		t.Errorf("H2 MP2 = %.10f, closed form %.10f", e2, want)
	}
	if e2 >= 0 {
		t.Errorf("MP2 correlation energy must be negative, got %g", e2)
	}
}

// The conventional path against published numbers: Crawford's STO-3G
// water (Bohr; CrawfordGroup ProgrammingProjects #3 and #4). The
// references are E_nuc, the converged RHF energy and the MP2
// correlation energy those projects list; a wrong integral, basis
// coefficient or MP2 denominator moves them far beyond 1e-10.
func TestCrawfordWaterAnchors(t *testing.T) {
	g := molecule.New()
	g.AddAtom(8, 0, -0.143225816552, 0)
	g.AddAtom(1, 1.638036840407, 1.136548822547, 0)
	g.AddAtom(1, -1.638036840407, 1.136548822547, 0)
	const tol = 1e-10
	if got, want := g.NuclearRepulsion(), 8.002367061810450; math.Abs(got-want) > tol {
		t.Errorf("E_nuc = %.15f, want %.15f", got, want)
	}
	ref := runSCF(t, g, false, basis.AuxOptions{})
	if want := -74.942079928192; math.Abs(ref.Energy-want) > tol {
		t.Errorf("E_SCF = %.12f, want %.12f", ref.Energy, want)
	}
	e2, err := ConventionalMP2(ref, integrals.FourCenterAll(ref.Bs))
	if err != nil {
		t.Fatal(err)
	}
	if want := -0.049149636120; math.Abs(e2-want) > tol {
		t.Errorf("E_corr(MP2) = %.12f, want %.12f", e2, want)
	}
}

func TestRIMP2MatchesConventional(t *testing.T) {
	g := molecule.Water()
	conv := runSCF(t, g, false, basis.AuxOptions{})
	eri := integrals.FourCenterAll(conv.Bs)
	e2conv, err := ConventionalMP2(conv, eri)
	if err != nil {
		t.Fatal(err)
	}

	refSmall := runSCF(t, g, true, smallAux)
	small, err := RIMP2(refSmall, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refBig := runSCF(t, g, true, bigAux)
	big, err := RIMP2(refBig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errSmall := math.Abs(small.Ecorr - e2conv)
	errBig := math.Abs(big.Ecorr - e2conv)
	if errBig > 5e-4 {
		t.Errorf("RI-MP2 (large aux) error %.2e vs conventional %.6f (got %.6f)", errBig, e2conv, big.Ecorr)
	}
	if errBig > errSmall+1e-7 {
		t.Errorf("larger aux did not improve RI-MP2: %.2e vs %.2e", errBig, errSmall)
	}
	if big.Ecorr >= 0 {
		t.Error("correlation energy must be negative")
	}
}

func TestSCSDecomposition(t *testing.T) {
	ref := runSCF(t, molecule.Water(), true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ecorr-(r.EcorrOS+r.EcorrSS)) > 1e-12 {
		t.Error("Ecorr != OS + SS")
	}
	want := 1.2*r.EcorrOS + r.EcorrSS/3
	if math.Abs(r.ESCS-want) > 1e-12 {
		t.Error("SCS scaling wrong")
	}
	if r.EcorrOS >= 0 || r.EcorrSS >= 0 {
		t.Error("both spin components should be negative for water")
	}
	// SCS option changes only ETotal.
	r2, _ := RIMP2(ref, Options{SCS: true})
	if math.Abs(r2.ETotal-(ref.Energy+r2.ESCS)) > 1e-12 {
		t.Error("SCS ETotal wrong")
	}
}

// The flagship correctness test: the analytic RI-HF + RI-MP2 gradient
// must match central finite differences of the same RI total energy.
func TestMP2GradientFD(t *testing.T) {
	g := molecule.Water()
	energy := func(gg *molecule.Geometry) float64 {
		bs, _ := basis.Build("sto-3g", gg)
		ref, err := scf.RHF(gg, bs, scf.Options{UseRI: true, AuxOpts: smallAux, ConvE: 1e-12, ConvErr: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RIMP2(ref, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.ETotal
	}
	ref := runSCF(t, g, true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-4
	for i := range g.Atoms {
		for d := 0; d < 3; d++ {
			gp := g.Clone()
			gp.Atoms[i].Pos[d] += h
			gm := g.Clone()
			gm.Atoms[i].Pos[d] -= h
			fd := (energy(gp) - energy(gm)) / (2 * h)
			if math.Abs(got[3*i+d]-fd) > 2e-6 {
				t.Errorf("grad[%d,%d]: analytic %.9f vs FD %.9f (Δ=%.2e)",
					i, d, got[3*i+d], fd, got[3*i+d]-fd)
			}
		}
	}
}

func TestMP2GradientSumRule(t *testing.T) {
	g := molecule.WaterDimer(3.0)
	ref := runSCF(t, g, true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grad, err := r.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		var s float64
		for i := 0; i < g.N(); i++ {
			s += grad[3*i+d]
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("net MP2 force along %d = %.2e", d, s)
		}
	}
}

func TestRIMP2RequiresRIReference(t *testing.T) {
	ref := runSCF(t, molecule.Water(), false, basis.AuxOptions{})
	if _, err := RIMP2(ref, Options{}); err == nil {
		t.Fatal("expected error for non-RI reference")
	}
}

// A reference without virtual orbitals (He₂/STO-3G) has no correlated
// pairs: every gradient-stage tensor is empty along one dimension and
// the MP2 gradient must reduce to the RI-HF one.
func TestGradientWithoutVirtuals(t *testing.T) {
	g := molecule.New()
	g.AddAtom(2, 0, 0, 0)
	g.AddAtom(2, 0, 0, 3.0)
	ref := runSCF(t, g, true, smallAux)
	r, err := RIMP2(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range ref.Gradient() {
		if math.Abs(got[k]-want) > 1e-12 {
			t.Errorf("grad[%d] = %.12f, RI-HF gradient %.12f", k, got[k], want)
		}
	}
}
