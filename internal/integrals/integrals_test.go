package integrals

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// --- Boys function -------------------------------------------------------

func TestBoysF0AgainstErf(t *testing.T) {
	// F_0(x) = ½ √(π/x) erf(√x)
	for _, x := range []float64{1e-14, 1e-6, 0.1, 0.5, 1, 3, 10, 30, 34.9, 35.1, 50, 200} {
		out := make([]float64, 1)
		boys(0, x, out)
		var want float64
		if x < 1e-12 {
			want = 1
		} else {
			want = 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
		}
		if math.Abs(out[0]-want) > 1e-12 {
			t.Errorf("F0(%g) = %.15f, want %.15f", x, out[0], want)
		}
	}
}

func TestBoysRecursionConsistency(t *testing.T) {
	// Upward recursion identity: F_{m+1} = ((2m+1) F_m − e^{−x}) / (2x).
	for _, x := range []float64{0.3, 2, 8, 20, 34, 36, 80} {
		out := make([]float64, 9)
		boys(8, x, out)
		for m := 0; m < 8; m++ {
			want := (float64(2*m+1)*out[m] - math.Exp(-x)) / (2 * x)
			if math.Abs(out[m+1]-want) > 1e-11*math.Max(1, out[m]) {
				t.Errorf("x=%g m=%d: recursion violated: %g vs %g", x, m, out[m+1], want)
			}
		}
	}
}

func TestBoysDerivativeIdentity(t *testing.T) {
	// dF_m/dx = −F_{m+1}, checked by central differences.
	h := 1e-6
	for _, x := range []float64{0.5, 4, 15} {
		fp := make([]float64, 4)
		fm := make([]float64, 4)
		f := make([]float64, 5)
		boys(3, x+h, fp)
		boys(3, x-h, fm)
		boys(4, x, f)
		for m := 0; m <= 3; m++ {
			fd := (fp[m] - fm[m]) / (2 * h)
			if math.Abs(fd+f[m+1]) > 1e-8 {
				t.Errorf("x=%g m=%d: dF/dx=%g, −F_{m+1}=%g", x, m, fd, -f[m+1])
			}
		}
	}
}

// boysRelErr returns the largest relative difference between boys and
// boysSeries over out[0..m] at x.
func boysRelErr(m int, x float64) float64 {
	got, want := make([]float64, m+1), make([]float64, m+1)
	boys(m, x, got)
	boysSeries(m, x, want)
	var worst float64
	for k := range got {
		worst = math.Max(worst, math.Abs(got[k]-want[k])/want[k])
	}
	return worst
}

// The table against the series it was generated from, in every order up
// to the largest a kernel reaches on the dzp basis — FourCenterDerivHF's
// (L+1)+L+L+L over d shells — at every node and midpoint of the grid,
// at its ends and past them.
func TestBoysTableMatchesSeries(t *testing.T) {
	bs, err := basis.Build("dzp", molecule.Water())
	if err != nil {
		t.Fatal(err)
	}
	mmax := 4*bs.MaxL() + 1
	xs := []float64{0, 1e-13, boysGridMax - 1e-12, boysGridMax, boysGridMax + 1e-12, 35.5, 40, 60}
	for i := 0; i < boysNodes; i++ {
		x := float64(i) / boysPerUnit
		xs = append(xs, x, x+0.5/boysPerUnit)
	}
	var worst float64
	for m := 0; m <= mmax; m++ {
		for _, x := range xs {
			rel := boysRelErr(m, x)
			if rel > 1e-14 {
				t.Fatalf("m=%d x=%g: relative error %.3g against the series", m, x, rel)
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("m ≤ %d, %d arguments: worst relative error %.3g", mmax, len(xs), worst)
}

// FuzzBoys: any argument and order leaves boys in one piece; a finite
// x ≥ 0 gives finite, non-negative values falling with the order, within
// 1e-14 of the series wherever that converges. No Gaussian integral has
// a NaN, infinite or negative argument: one gives NaN in every order —
// never an index out of the table — so a non-finite geometry reaches the
// SCF's non-finite guard. The seeds run with every plain go test.
func FuzzBoys(f *testing.F) {
	for _, x := range []float64{0, 1e-13, 0.5, 17.015625, 35, 35.1, 80, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), -1e-300, -2} {
		f.Add(x, uint8(boysMaxM))
	}
	f.Fuzz(func(t *testing.T, x float64, order uint8) {
		m := int(order) % (boysMaxM + 1)
		out := make([]float64, m+1)
		boys(m, x, out)
		if !(x >= 0 && x <= math.MaxFloat64) {
			for k, v := range out {
				if !math.IsNaN(v) {
					t.Fatalf("F_%d(%g) = %g, want NaN", k, x, v)
				}
			}
			return
		}
		for k, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (k > 0 && v > out[k-1]) {
				t.Fatalf("F_%d(%g) = %g (F_%d = %g)", k, x, v, k-1, out[max(k-1, 0)])
			}
		}
		if x <= 60 {
			if rel := boysRelErr(m, x); rel > 1e-14 {
				t.Fatalf("m=%d x=%g: relative error %.3g against the series", m, x, rel)
			}
		}
	})
}

// --- helper geometries/bases ---------------------------------------------

// h2Basis builds the Szabo–Ostlund H2/STO-3G system: two H atoms at
// separation 1.4 Bohr.
func h2() (*molecule.Geometry, *basis.Set) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(1, 0, 0, 1.4)
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		panic(err)
	}
	return g, bs
}

func waterSTO() (*molecule.Geometry, *basis.Set) {
	g := molecule.Water()
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		panic(err)
	}
	return g, bs
}

// --- one-electron anchors (Szabo & Ostlund, Table 3.5 / §3.5.2) ----------

func TestH2OneElectronAnchors(t *testing.T) {
	g, bs := h2()
	s := Overlap(bs)
	if math.Abs(s.At(0, 0)-1) > 1e-9 || math.Abs(s.At(1, 1)-1) > 1e-9 {
		t.Fatalf("diagonal overlap not 1: %g %g", s.At(0, 0), s.At(1, 1))
	}
	if math.Abs(s.At(0, 1)-0.6593) > 2e-4 {
		t.Errorf("S12 = %.4f, want 0.6593", s.At(0, 1))
	}
	k := Kinetic(bs)
	if math.Abs(k.At(0, 0)-0.7600) > 2e-4 {
		t.Errorf("T11 = %.4f, want 0.7600", k.At(0, 0))
	}
	if math.Abs(k.At(0, 1)-0.2365) > 2e-4 {
		t.Errorf("T12 = %.4f, want 0.2365", k.At(0, 1))
	}
	v := Nuclear(bs, g)
	// V11 (both nuclei): −1.2266 + −0.6538 = −1.8804 (S&O).
	if math.Abs(v.At(0, 0)-(-1.8804)) > 5e-4 {
		t.Errorf("V11 = %.4f, want −1.8804", v.At(0, 0))
	}
}

func TestKineticSinglePrimitive(t *testing.T) {
	// ⟨T⟩ of a normalised s primitive with exponent a is 3a/2.
	for _, a := range []float64{0.5, 1.24, 7.7} {
		sh := basis.NewCustomShell(0, [3]float64{0.3, -0.2, 0.9}, 0, []float64{a}, []float64{1})
		bs := basis.FromShells("test", 1, sh)
		k := Kinetic(bs)
		if math.Abs(k.At(0, 0)-1.5*a) > 1e-10 {
			t.Errorf("a=%g: T=%g, want %g", a, k.At(0, 0), 1.5*a)
		}
	}
}

func TestNuclearSinglePrimitiveOnCenter(t *testing.T) {
	// ⟨1/r⟩ of a normalised s primitive about its own center = 2√(2a/π).
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	a := 1.7
	sh := basis.NewCustomShell(0, [3]float64{0, 0, 0}, 0, []float64{a}, []float64{1})
	bs := basis.FromShells("test", 1, sh)
	v := Nuclear(bs, g)
	want := -2 * math.Sqrt(2*a/math.Pi)
	if math.Abs(v.At(0, 0)-want) > 1e-10 {
		t.Errorf("V = %.10f, want %.10f", v.At(0, 0), want)
	}
}

func TestOverlapOrthonormalDiagonal(t *testing.T) {
	g := molecule.Water()
	for _, name := range []string{"sto-3g", "dzp"} {
		bs, err := basis.Build(name, g)
		if err != nil {
			t.Fatal(err)
		}
		s := Overlap(bs)
		for i := 0; i < bs.N; i++ {
			if math.Abs(s.At(i, i)-1) > 1e-9 {
				t.Fatalf("%s: S[%d,%d] = %.12f, want 1", name, i, i, s.At(i, i))
			}
		}
		// Symmetry and positive definiteness.
		for i := 0; i < bs.N; i++ {
			for j := 0; j < bs.N; j++ {
				if math.Abs(s.At(i, j)-s.At(j, i)) > 1e-12 {
					t.Fatalf("%s: S not symmetric", name)
				}
			}
		}
		if _, err := linalg.Cholesky(s); err != nil {
			t.Fatalf("%s: S not positive definite: %v", name, err)
		}
	}
}

// --- two-electron anchors --------------------------------------------------

func TestH2TwoElectronAnchors(t *testing.T) {
	_, bs := h2()
	eri := FourCenterAll(bs)
	n := bs.N
	get := func(i, j, k, l int) float64 { return eri[ERIIndex(n, i, j, k, l)] }
	checks := []struct {
		i, j, k, l int
		want       float64
		name       string
	}{
		{0, 0, 0, 0, 0.7746, "(11|11)"},
		{0, 0, 1, 1, 0.5697, "(11|22)"},
		{1, 0, 0, 0, 0.4441, "(21|11)"},
		{1, 0, 1, 0, 0.2970, "(21|21)"},
	}
	for _, c := range checks {
		if math.Abs(get(c.i, c.j, c.k, c.l)-c.want) > 2e-4 {
			t.Errorf("%s = %.4f, want %.4f", c.name, get(c.i, c.j, c.k, c.l), c.want)
		}
	}
	// Permutational symmetry of the full tensor.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					v := get(i, j, k, l)
					for _, w := range []float64{get(j, i, k, l), get(i, j, l, k), get(k, l, i, j)} {
						if math.Abs(v-w) > 1e-11 {
							t.Fatalf("permutational symmetry violated at %d%d%d%d", i, j, k, l)
						}
					}
				}
			}
		}
	}
}

func TestTwoCenterAnalyticSS(t *testing.T) {
	// (P|Q) for two normalised s primitives a, b at distance R:
	// N_a N_b (π/a)^{3/2} (π/b)^{3/2} erf(√α R)/R, α = ab/(a+b).
	a, b := 0.8, 1.9
	r := 2.3
	shA := basis.NewCustomShell(0, [3]float64{0, 0, 0}, 0, []float64{a}, []float64{1})
	shB := basis.NewCustomShell(1, [3]float64{0, 0, r}, 0, []float64{b}, []float64{1})
	aux := basis.FromShells("test", 2, shA, shB)
	m := TwoCenter(aux)
	na := math.Pow(2*a/math.Pi, 0.75)
	nb := math.Pow(2*b/math.Pi, 0.75)
	alpha := a * b / (a + b)
	want := na * nb * math.Pow(math.Pi/a, 1.5) * math.Pow(math.Pi/b, 1.5) * math.Erf(math.Sqrt(alpha)*r) / r
	if math.Abs(m.At(0, 1)-want) > 1e-10 {
		t.Errorf("(P|Q) = %.12f, want %.12f", m.At(0, 1), want)
	}
	// Metric must be symmetric positive definite.
	if _, err := linalg.Cholesky(m); err != nil {
		t.Errorf("metric not SPD: %v", err)
	}
}

func TestThreeCenterMatchesFourCenterLimit(t *testing.T) {
	// (μν|P) computed by the 3-center path must equal the 4-center
	// integral where one ket function is an s primitive with tiny
	// exponent... instead, exact check: (μν|P) with P an s primitive
	// equals (μν|PP') where the ket pair is the same primitive split —
	// simplest exact identity: compare against a 4-center integral with
	// the ket pair being (P, unit-s-at-same-center with exponent 0⁺) is
	// ill-conditioned. Use instead the Coulomb metric consistency:
	// (P|Q) from TwoCenter must equal the 3-center integral where the
	// bra pair is a single aux function against a dummy "1" — skipped;
	// here we verify (μν|P) symmetry and RI reconstruction quality.
	g, bs := waterSTO()
	aux := basis.BuildAux(bs, g, basis.AuxOptions{})
	t3 := ThreeCenter(bs, aux)
	for p := 0; p < aux.N; p += 7 {
		for mu := 0; mu < bs.N; mu++ {
			for nu := 0; nu < bs.N; nu++ {
				if math.Abs(t3.At(p, mu, nu)-t3.At(p, nu, mu)) > 1e-12 {
					t.Fatalf("(μν|P) not symmetric in μν")
				}
			}
		}
	}
	// RI reconstruction: (μν|λσ)_RI = Σ_PQ (μν|P) J⁻¹_PQ (Q|λσ) should
	// approximate the exact integrals.
	j := TwoCenter(aux)
	jinv12, _ := linalg.InvSqrtSym(j, 1e-10)
	b := linalg.NewTensor3(aux.N, bs.N, bs.N)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, jinv12, t3.Flatten(), 0, b.Flatten())
	eri := FourCenterAll(bs)
	var maxErr, sumErr float64
	cnt := 0
	for mu := 0; mu < bs.N; mu++ {
		for nu := 0; nu < bs.N; nu++ {
			for la := 0; la < bs.N; la++ {
				for si := 0; si < bs.N; si++ {
					var ri float64
					for p := 0; p < aux.N; p++ {
						ri += b.At(p, mu, nu) * b.At(p, la, si)
					}
					err := math.Abs(ri - eri[ERIIndex(bs.N, mu, nu, la, si)])
					sumErr += err
					cnt++
					if err > maxErr {
						maxErr = err
					}
				}
			}
		}
	}
	if maxErr > 0.02 {
		t.Errorf("RI max error %.4g too large", maxErr)
	}
	if sumErr/float64(cnt) > 2e-3 {
		t.Errorf("RI mean error %.4g too large", sumErr/float64(cnt))
	}
}

// --- derivative checks (finite differences) -------------------------------

// fdGrad computes a central-difference gradient of f with respect to all
// atomic coordinates of g.
func fdGrad(g *molecule.Geometry, f func(*molecule.Geometry) float64, h float64) []float64 {
	grad := make([]float64, 3*g.N())
	for i := range g.Atoms {
		for d := 0; d < 3; d++ {
			gp := g.Clone()
			gp.Atoms[i].Pos[d] += h
			gm := g.Clone()
			gm.Atoms[i].Pos[d] -= h
			grad[3*i+d] = (f(gp) - f(gm)) / (2 * h)
		}
	}
	return grad
}

func randWeight(rng *rand.Rand, n int) *linalg.Mat {
	w := linalg.NewMat(n, n)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	return w
}

func gradsClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s grad[%d]: analytic %.10f vs FD %.10f", name, i, got[i], want[i])
		}
	}
}

func TestOverlapDerivFD(t *testing.T) {
	g, bs := waterSTO()
	rng := rand.New(rand.NewSource(11))
	w := randWeight(rng, bs.N) // non-symmetric on purpose
	energy := func(gg *molecule.Geometry) float64 {
		b2, _ := basis.Build("sto-3g", gg)
		return linalg.Dot(w, Overlap(b2))
	}
	grad := make([]float64, 3*g.N())
	OverlapDeriv(bs, w, 1, grad)
	gradsClose(t, "overlap", grad, fdGrad(g, energy, 1e-5), 1e-7)
}

func TestKineticDerivFD(t *testing.T) {
	g, bs := waterSTO()
	rng := rand.New(rand.NewSource(12))
	w := randWeight(rng, bs.N)
	energy := func(gg *molecule.Geometry) float64 {
		b2, _ := basis.Build("sto-3g", gg)
		return linalg.Dot(w, Kinetic(b2))
	}
	grad := make([]float64, 3*g.N())
	KineticDeriv(bs, w, 1, grad)
	gradsClose(t, "kinetic", grad, fdGrad(g, energy, 1e-5), 1e-7)
}

func TestNuclearDerivFD(t *testing.T) {
	g, bs := waterSTO()
	rng := rand.New(rand.NewSource(13))
	w := randWeight(rng, bs.N)
	energy := func(gg *molecule.Geometry) float64 {
		b2, _ := basis.Build("sto-3g", gg)
		return linalg.Dot(w, Nuclear(b2, gg))
	}
	grad := make([]float64, 3*g.N())
	NuclearDeriv(bs, g, w, 1, grad)
	gradsClose(t, "nuclear", grad, fdGrad(g, energy, 1e-5), 1e-6)
}

// fdAuxCases are the auxiliary sets the two- and three-centre FD checks
// run on: sto-3g water with s/p auxiliaries; dzp water with the default
// set — d bra shells against d and f runs, where the auxiliary atom's
// term comes from the bra's translation derivative rather than from the
// raise/lower pairs alone; and that set contracted to two-primitive
// shells, several members of one shell in a run.
func fdAuxCases() []struct {
	name, orb string
	aux       func(bs *basis.Set, g *molecule.Geometry) *basis.Set
} {
	type kase = struct {
		name, orb string
		aux       func(bs *basis.Set, g *molecule.Geometry) *basis.Set
	}
	return []kase{
		{"sto-3g, s/p aux", "sto-3g", func(bs *basis.Set, g *molecule.Geometry) *basis.Set {
			return basis.BuildAux(bs, g, basis.AuxOptions{PerL: []int{3, 2}, MaxL: 1})
		}},
		{"dzp, default aux", "dzp", func(bs *basis.Set, g *molecule.Geometry) *basis.Set {
			return basis.BuildAux(bs, g, basis.AuxOptions{})
		}},
		{"dzp, contracted aux", "dzp", func(bs *basis.Set, g *molecule.Geometry) *basis.Set {
			return contracted(basis.BuildAux(bs, g, basis.AuxOptions{}))
		}},
	}
}

func TestTwoCenterDerivFD(t *testing.T) {
	g := molecule.Water()
	for i, c := range fdAuxCases() {
		bs, _ := basis.Build(c.orb, g)
		aux := c.aux(bs, g)
		rng := rand.New(rand.NewSource(14 + 100*int64(i)))
		zeta := randWeight(rng, aux.N)
		energy := func(gg *molecule.Geometry) float64 {
			b2, _ := basis.Build(c.orb, gg)
			return linalg.Dot(zeta, TwoCenter(c.aux(b2, gg)))
		}
		grad := make([]float64, 3*g.N())
		TwoCenterDeriv(aux, zeta, 1, grad)
		gradsClose(t, "twocenter, "+c.name, grad, fdGrad(g, energy, 1e-5), 1e-6)
	}
}

func TestThreeCenterDerivFD(t *testing.T) {
	g := molecule.Water()
	for i, c := range fdAuxCases() {
		bs, _ := basis.Build(c.orb, g)
		aux := c.aux(bs, g)
		rng := rand.New(rand.NewSource(15 + 100*int64(i)))
		z := linalg.NewTensor3(aux.N, bs.N, bs.N)
		for i := range z.Data {
			z.Data[i] = rng.NormFloat64()
		}
		energy := func(gg *molecule.Geometry) float64 {
			b2, _ := basis.Build(c.orb, gg)
			t3 := ThreeCenter(b2, c.aux(b2, gg))
			var s float64
			for i, v := range t3.Data {
				s += z.Data[i] * v
			}
			return s
		}
		grad := make([]float64, 3*g.N())
		ThreeCenterDeriv(bs, aux, z, 1, grad)
		gradsClose(t, "threecenter, "+c.name, grad, fdGrad(g, energy, 1e-5), 1e-6)
	}
}

func TestFourCenterDerivHFFD(t *testing.T) {
	g := molecule.New()
	g.AddAtom(1, 0, 0, 0)
	g.AddAtom(8, 0, 0, 1.8)
	g.AddAtom(1, 0, 1.5, 2.6)
	bs, _ := basis.Build("sto-3g", g)
	rng := rand.New(rand.NewSource(16))
	// A fixed symmetric "density" (not SCF-derived — the contraction
	// identity must hold for any symmetric matrix).
	d := randWeight(rng, bs.N).Sym()
	energy := func(gg *molecule.Geometry) float64 {
		b2, _ := basis.Build("sto-3g", gg)
		eri := FourCenterAll(b2)
		var e float64
		n := b2.N
		for mu := 0; mu < n; mu++ {
			for nu := 0; nu < n; nu++ {
				for la := 0; la < n; la++ {
					for si := 0; si < n; si++ {
						e += (0.5*d.At(mu, nu)*d.At(la, si) - 0.25*d.At(mu, la)*d.At(nu, si)) *
							eri[ERIIndex(n, mu, nu, la, si)]
					}
				}
			}
		}
		return e
	}
	sw := SchwarzShellPairs(bs)
	grad := make([]float64, 3*g.N())
	FourCenterDerivHF(bs, d, sw, 1e-14, 1, grad)
	gradsClose(t, "fourcenter", grad, fdGrad(g, energy, 1e-5), 5e-6)
}

func TestFockDirectMatchesStoredERI(t *testing.T) {
	g, bs := waterSTO()
	_ = g
	rng := rand.New(rand.NewSource(17))
	d := randWeight(rng, bs.N).Sym()
	sw := SchwarzShellPairs(bs)
	got := FockDirect(bs, d, sw, 1e-14)
	eri := FourCenterAll(bs)
	n := bs.N
	want := linalg.NewMat(n, n)
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			var s float64
			for la := 0; la < n; la++ {
				for si := 0; si < n; si++ {
					s += d.At(la, si) * (eri[ERIIndex(n, mu, nu, la, si)] - 0.5*eri[ERIIndex(n, mu, la, nu, si)])
				}
			}
			want.Set(mu, nu, s)
		}
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("FockDirect mismatch at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTranslationalInvariance(t *testing.T) {
	// All integral matrices must be unchanged by rigid translation.
	g, bs := waterSTO()
	s1 := Overlap(bs)
	k1 := Kinetic(bs)
	v1 := Nuclear(bs, g)
	g2 := g.Clone()
	g2.Translate(1.7, -2.4, 0.9)
	bs2, _ := basis.Build("sto-3g", g2)
	s2 := Overlap(bs2)
	k2 := Kinetic(bs2)
	v2 := Nuclear(bs2, g2)
	for i := range s1.Data {
		if math.Abs(s1.Data[i]-s2.Data[i]) > 1e-11 ||
			math.Abs(k1.Data[i]-k2.Data[i]) > 1e-11 ||
			math.Abs(v1.Data[i]-v2.Data[i]) > 1e-10 {
			t.Fatal("integrals not translation invariant")
		}
	}
}
