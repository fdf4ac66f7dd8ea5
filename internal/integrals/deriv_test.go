package integrals

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// --- the ordered-visit derivative loops this package used to run ---------
//
// Kept in their old shape (nested-slice Hermite tables, one R cube per
// primitive triple, every ordered shell pair visited with the bra-left
// derivative only, serial) as the oracle for the half-visited,
// scratch-based kernels.

func legacyETable(imax, jmax int, a, b, ab float64) [][][]float64 {
	p := a + b
	mu := a * b / p
	xpa := -b / p * ab
	xpb := a / p * ab
	inv2p := 1 / (2 * p)
	e := make([][][]float64, imax+1)
	for i := range e {
		e[i] = make([][]float64, jmax+1)
		for j := range e[i] {
			e[i][j] = make([]float64, i+j+1)
		}
	}
	e[0][0][0] = math.Exp(-mu * ab * ab)
	step := func(src, dst []float64, n int, x float64) {
		for t := 0; t <= n+1; t++ {
			var v float64
			if t > 0 {
				v += inv2p * src[t-1]
			}
			if t <= n {
				v += x * src[t]
			}
			if t+1 <= n {
				v += float64(t+1) * src[t+1]
			}
			dst[t] = v
		}
	}
	for i := 0; i < imax; i++ {
		step(e[i][0], e[i+1][0], i, xpa)
	}
	for i := 0; i <= imax; i++ {
		for j := 0; j < jmax; j++ {
			step(e[i][j], e[i][j+1], i+j, xpb)
		}
	}
	return e
}

func legacyRCube(tmax int, alpha float64, dx, dy, dz float64) [][][]float64 {
	f := make([]float64, tmax+1)
	boys(tmax, alpha*(dx*dx+dy*dy+dz*dz), f)
	alloc := func() [][][]float64 {
		c := make([][][]float64, tmax+1)
		for t := range c {
			c[t] = make([][]float64, tmax+1-t)
			for u := range c[t] {
				c[t][u] = make([]float64, tmax+1-t-u)
			}
		}
		return c
	}
	cur, prev := alloc(), alloc()
	for n := tmax; n >= 0; n-- {
		lim := tmax - n
		for t := 0; t <= lim; t++ {
			for u := 0; u <= lim-t; u++ {
				for v := 0; v <= lim-t-u; v++ {
					var val float64
					switch {
					case t == 0 && u == 0 && v == 0:
						val = math.Pow(-2*alpha, float64(n)) * f[n]
					case t > 0:
						if t >= 2 {
							val = float64(t-1) * prev[t-2][u][v]
						}
						val += dx * prev[t-1][u][v]
					case u > 0:
						if u >= 2 {
							val = float64(u-1) * prev[t][u-2][v]
						}
						val += dy * prev[t][u-1][v]
					default:
						if v >= 2 {
							val = float64(v-1) * prev[t][u][v-2]
						}
						val += dz * prev[t][u][v-1]
					}
					cur[t][u][v] = val
				}
			}
		}
		if n > 0 {
			prev, cur = cur, prev
		}
	}
	return cur
}

func legacyContract(ebx, eby, ebz, ekx, eky, ekz []float64, r [][][]float64) float64 {
	var sum float64
	sign := func(i int, x float64) float64 {
		if i&1 == 1 {
			return -x
		}
		return x
	}
	for t, bt := range ebx {
		for u, bu := range eby {
			for v, bv := range ebz {
				for t2 := range ekx {
					for u2 := range eky {
						for v2 := range ekz {
							sum += bt * bu * bv * sign(t2, ekx[t2]) * sign(u2, eky[u2]) * sign(v2, ekz[v2]) * r[t+t2][u+u2][v+v2]
						}
					}
				}
			}
		}
	}
	return sum
}

// legacyBraDeriv adds wv·∂/∂A of an integral whose bra-left shell has
// Cartesian powers A and exponent a, value(ia) evaluating it at powers ia.
func legacyBraDeriv(a float64, A [3]int, value func(ia [3]int) float64, wv float64, plus, minus []float64) {
	for d := 0; d < 3; d++ {
		up, down := A, A
		up[d]++
		down[d]--
		dv := 2 * a * value(up)
		if A[d] > 0 {
			dv -= float64(A[d]) * value(down)
		}
		plus[d] += wv * dv
		if minus != nil {
			minus[d] -= wv * dv
		}
	}
}

func legacyTwoCenterDeriv(aux *basis.Set, zeta *linalg.Mat, factor float64, grad []float64) {
	for ip := range aux.Shells {
		for iq := range aux.Shells {
			sp, sq := &aux.Shells[ip], &aux.Shells[iq]
			dx, dy, dz := sp.Center[0]-sq.Center[0], sp.Center[1]-sq.Center[1], sp.Center[2]-sq.Center[2]
			for p, a := range sp.Exps {
				eb := legacyETable(sp.L+1, 0, a, 0, 0)
				for q, b := range sq.Exps {
					ek := legacyETable(sq.L, 0, b, 0, 0)
					pre := twoERIPre / (a * b * math.Sqrt(a+b))
					r := legacyRCube(sp.L+1+sq.L, a*b/(a+b), dx, dy, dz)
					for cp, P := range basis.CartComponents(sp.L) {
						for cq, Q := range basis.CartComponents(sq.L) {
							coef := sp.Coefs[cp][p] * sq.Coefs[cq][q] * pre
							wv := (zeta.At(sp.Start+cp, sq.Start+cq) + zeta.At(sq.Start+cq, sp.Start+cp)) * factor * coef
							legacyBraDeriv(a, P, func(ia [3]int) float64 {
								return legacyContract(eb[ia[0]][0], eb[ia[1]][0], eb[ia[2]][0],
									ek[Q[0]][0], ek[Q[1]][0], ek[Q[2]][0], r)
							}, wv, grad[3*sp.Atom:], nil)
						}
					}
				}
			}
		}
	}
}

func legacyThreeCenterDeriv(bs, aux *basis.Set, z *linalg.Tensor3, factor float64, grad []float64) {
	for ia := range bs.Shells {
		for ib := range bs.Shells {
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			for ip := range aux.Shells {
				sp := &aux.Shells[ip]
				for p, a := range sa.Exps {
					for q, b := range sb.Exps {
						pexp := a + b
						var e [3][][][]float64
						var pab [3]float64
						for d := 0; d < 3; d++ {
							e[d] = legacyETable(sa.L+1, sb.L, a, b, sa.Center[d]-sb.Center[d])
							pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
						}
						for pp, c := range sp.Exps {
							ek := legacyETable(sp.L, 0, c, 0, 0)
							pre := twoERIPre / (pexp * c * math.Sqrt(pexp+c))
							r := legacyRCube(sa.L+1+sb.L+sp.L, pexp*c/(pexp+c),
								pab[0]-sp.Center[0], pab[1]-sp.Center[1], pab[2]-sp.Center[2])
							for ca, A := range basis.CartComponents(sa.L) {
								for cb, B := range basis.CartComponents(sb.L) {
									for cp, P := range basis.CartComponents(sp.L) {
										coef := sa.Coefs[ca][p] * sb.Coefs[cb][q] * pre * sp.Coefs[cp][pp]
										wv := (z.At(sp.Start+cp, sa.Start+ca, sb.Start+cb) +
											z.At(sp.Start+cp, sb.Start+cb, sa.Start+ca)) * factor * coef
										legacyBraDeriv(a, A, func(ia [3]int) float64 {
											return legacyContract(e[0][ia[0]][B[0]], e[1][ia[1]][B[1]], e[2][ia[2]][B[2]],
												ek[P[0]][0], ek[P[1]][0], ek[P[2]][0], r)
										}, wv, grad[3*sa.Atom:], grad[3*sp.Atom:])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// legacyThreeCenter is the value-mode counterpart: every ordered bra
// shell pair and every primitive pair, with neither Schwarz nor
// primitive-pair screening.
func legacyThreeCenter(bs, aux *basis.Set) *linalg.Tensor3 {
	t := linalg.NewTensor3(aux.N, bs.N, bs.N)
	for ia := range bs.Shells {
		for ib := range bs.Shells {
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			for ip := range aux.Shells {
				sp := &aux.Shells[ip]
				for p, a := range sa.Exps {
					for q, b := range sb.Exps {
						pexp := a + b
						var e [3][][][]float64
						var pab [3]float64
						for d := 0; d < 3; d++ {
							e[d] = legacyETable(sa.L, sb.L, a, b, sa.Center[d]-sb.Center[d])
							pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
						}
						for pp, c := range sp.Exps {
							ek := legacyETable(sp.L, 0, c, 0, 0)
							pre := twoERIPre / (pexp * c * math.Sqrt(pexp+c))
							r := legacyRCube(sa.L+sb.L+sp.L, pexp*c/(pexp+c),
								pab[0]-sp.Center[0], pab[1]-sp.Center[1], pab[2]-sp.Center[2])
							for ca, A := range basis.CartComponents(sa.L) {
								for cb, B := range basis.CartComponents(sb.L) {
									for cp, P := range basis.CartComponents(sp.L) {
										coef := sa.Coefs[ca][p] * sb.Coefs[cb][q] * pre * sp.Coefs[cp][pp]
										t.Add(sp.Start+cp, sa.Start+ca, sb.Start+cb, coef*legacyContract(
											e[0][A[0]][B[0]], e[1][A[1]][B[1]], e[2][A[2]][B[2]],
											ek[P[0]][0], ek[P[1]][0], ek[P[2]][0], r))
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return t
}

// --- the cases -----------------------------------------------------------

type derivCase struct {
	name    string
	bs, aux *basis.Set
}

// derivCases: the water dimer in sto-3g with its full auto-auxiliary
// basis (s, p, d shells), and one water in dzp — d-type orbital shells —
// with auxiliary shells up to d.
func derivCases(t *testing.T) []derivCase {
	t.Helper()
	build := func(name, orb string, g *molecule.Geometry, ao basis.AuxOptions) derivCase {
		bs, err := basis.Build(orb, g)
		if err != nil {
			t.Fatal(err)
		}
		return derivCase{name, bs, basis.BuildAux(bs, g, ao)}
	}
	return []derivCase{
		build("water dimer sto-3g", "sto-3g", molecule.WaterCluster(2), basis.AuxOptions{}),
		build("water dzp, d aux", "dzp", molecule.Water(), basis.AuxOptions{PerL: []int{2, 2, 1}, MaxL: 2}),
	}
}

func randTensor(rng *rand.Rand, n1, n2, n3 int) *linalg.Tensor3 {
	z := linalg.NewTensor3(n1, n2, n3)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	return z
}

func maxAbsDiff(a, b []float64) (d, scale float64) {
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	return d, scale
}

// The half-visited kernels against the ordered-visit loops they
// replaced: non-symmetric random weights, 1e-12 relative to the largest
// gradient component.
func TestHalfVisitedDerivsMatchOrderedVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range derivCases(t) {
		nat := c.bs.NAtoms
		z := randTensor(rng, c.aux.N, c.bs.N, c.bs.N)
		got, want := make([]float64, 3*nat), make([]float64, 3*nat)
		ThreeCenterDeriv(c.bs, c.aux, z, 0.7, got)
		legacyThreeCenterDeriv(c.bs, c.aux, z, 0.7, want)
		if d, s := maxAbsDiff(got, want); d > 1e-12*s {
			t.Errorf("%s: ThreeCenterDeriv differs from the ordered-visit loop by %.3g (scale %.3g)", c.name, d, s)
		}

		zeta := randWeight(rng, c.aux.N)
		got, want = make([]float64, 3*nat), make([]float64, 3*nat)
		TwoCenterDeriv(c.aux, zeta, -1.3, got)
		legacyTwoCenterDeriv(c.aux, zeta, -1.3, want)
		if d, s := maxAbsDiff(got, want); d > 1e-12*s {
			t.Errorf("%s: TwoCenterDeriv differs from the ordered-visit loop by %.3g (scale %.3g)", c.name, d, s)
		}
	}
}

// The primitive-pair screen (primPairThresh) against the unscreened
// ordered-visit loops: values and derivatives within 1e-12 of the
// largest element on a water dimer at 8 Å, whose cross-molecule pairs
// are the screen's prey, and on the trimer, where the skip must fire.
func TestPrimitiveScreenMatchesUnscreened(t *testing.T) {
	if testing.Short() {
		t.Skip("the unscreened ordered-visit oracles take seconds on the trimer, tens under -race")
	}
	rng := rand.New(rand.NewSource(25))
	for _, c := range []struct {
		name string
		g    *molecule.Geometry
	}{
		{"water dimer at 8 Å", molecule.WaterDimer(8)},
		{"water trimer", molecule.WaterCluster(3)},
	} {
		bs, err := basis.Build("sto-3g", c.g)
		if err != nil {
			t.Fatal(err)
		}
		aux := basis.BuildAux(bs, c.g, basis.AuxOptions{})

		var skipped, total int
		for _, pr := range upperPairs(len(bs.Shells)) {
			sa, sb := &bs.Shells[pr[0]], &bs.Shells[pr[1]]
			var ab2 float64
			for d := 0; d < 3; d++ {
				ab2 += (sa.Center[d] - sb.Center[d]) * (sa.Center[d] - sb.Center[d])
			}
			for p := range sa.Exps {
				for q := range sb.Exps {
					total++
					if primPairBound(sa, sb, p, q, ab2) < primPairThresh {
						skipped++
					}
				}
			}
		}
		t.Logf("%s: %d of %d bra primitive pairs skipped", c.name, skipped, total)
		if skipped == 0 {
			t.Errorf("%s: the primitive-pair screen skipped nothing", c.name)
		}

		got, want := ThreeCenterScreened(bs, aux, nil, 0), legacyThreeCenter(bs, aux)
		if d, s := maxAbsDiff(got.Data, want.Data); d > 1e-12*s {
			t.Errorf("%s: ThreeCenterScreened differs from the unscreened loop by %.3g (scale %.3g)", c.name, d, s)
		} else {
			t.Logf("%s: (μν|P) within %.3g of the unscreened loop (scale %.3g)", c.name, d, s)
		}

		z := randTensor(rng, aux.N, bs.N, bs.N)
		gd, wd := make([]float64, 3*bs.NAtoms), make([]float64, 3*bs.NAtoms)
		ThreeCenterDeriv(bs, aux, z, 1, gd)
		legacyThreeCenterDeriv(bs, aux, z, 1, wd)
		if d, s := maxAbsDiff(gd, wd); d > 1e-12*s {
			t.Errorf("%s: ThreeCenterDeriv differs from the unscreened loop by %.3g (scale %.3g)", c.name, d, s)
		} else {
			t.Logf("%s: gradient within %.3g of the unscreened loop (scale %.3g)", c.name, d, s)
		}
	}
}

// Blocks of Z that are exact zeros (what a screened B tensor hands the
// gradient) must be skipped without changing the result.
func TestThreeCenterDerivSkipsWeightlessBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := derivCases(t)[0]
	z := randTensor(rng, c.aux.N, c.bs.N, c.bs.N)
	for ip := range c.aux.Shells {
		if ip%3 == 0 {
			continue
		}
		sp := &c.aux.Shells[ip]
		for P := sp.Start; P < sp.Start+sp.NCart(); P++ {
			for i := range z.Slice(P).Data {
				z.Slice(P).Data[i] = 0
			}
		}
	}
	got, want := make([]float64, 3*c.bs.NAtoms), make([]float64, 3*c.bs.NAtoms)
	ThreeCenterDeriv(c.bs, c.aux, z, 1, got)
	legacyThreeCenterDeriv(c.bs, c.aux, z, 1, want)
	if d, s := maxAbsDiff(got, want); d > 1e-12*s {
		t.Errorf("sparse Z: differs from the ordered-visit loop by %.3g (scale %.3g)", d, s)
	}
}

// The per-chunk partial gradients are folded in chunk order, so repeated
// calls are bit-identical whatever the goroutine scheduling.
func TestDerivReductionIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(23))
	c := derivCases(t)[0]
	z := randTensor(rng, c.aux.N, c.bs.N, c.bs.N)
	zeta := randWeight(rng, c.aux.N)
	run := func() []float64 {
		grad := make([]float64, 3*c.bs.NAtoms)
		ThreeCenterDeriv(c.bs, c.aux, z, 1, grad)
		TwoCenterDeriv(c.aux, zeta, 1, grad)
		return grad
	}
	first := run()
	for rep := 1; rep < 50; rep++ {
		for i, v := range run() {
			if math.Float64bits(v) != math.Float64bits(first[i]) {
				t.Fatalf("call %d: grad[%d] = %x, first call gave %x", rep, i, math.Float64bits(v), math.Float64bits(first[i]))
			}
		}
	}
}

// The three-centre kernels allocate per call and per parallelFor chunk,
// never per primitive: tripling every orbital shell's primitive count
// (9× the primitive pairs) must not change the number of allocations.
func TestThreeCenterAllocsIndependentOfPrimitives(t *testing.T) {
	g := molecule.WaterCluster(2)
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		t.Fatal(err)
	}
	aux := basis.BuildAux(bs, g, basis.AuxOptions{PerL: []int{3, 2, 1}})
	fat := &basis.Set{Name: bs.Name, N: bs.N, NAtoms: bs.NAtoms}
	for _, sh := range bs.Shells {
		f := sh
		f.Exps, f.Coefs = nil, make([][]float64, len(sh.Coefs))
		for rep := 0; rep < 3; rep++ {
			for _, a := range sh.Exps {
				f.Exps = append(f.Exps, a*(1+0.1*float64(rep)))
			}
			for c := range sh.Coefs {
				f.Coefs[c] = append(f.Coefs[c], sh.Coefs[c]...)
			}
		}
		fat.Shells = append(fat.Shells, f)
	}
	z := randTensor(rand.New(rand.NewSource(24)), aux.N, bs.N, bs.N)
	grad := make([]float64, 3*bs.NAtoms)
	sw := SchwarzShellPairs(bs)

	chunks := float64(runtime.GOMAXPROCS(0))
	for _, k := range []struct {
		name string
		run  func(b *basis.Set)
	}{
		{"ThreeCenterDeriv", func(b *basis.Set) { ThreeCenterDeriv(b, aux, z, 1, grad) }},
		{"ThreeCenterScreened", func(b *basis.Set) { ThreeCenterScreened(b, aux, sw, 1e-12) }},
	} {
		lean := testing.AllocsPerRun(3, func() { k.run(bs) })
		heavy := testing.AllocsPerRun(3, func() { k.run(fat) })
		if heavy != lean {
			t.Errorf("%s: %v allocations with 3 primitives per shell, %v with 9", k.name, lean, heavy)
		}
		// Per call: pair list, output, one-centre tables, the Schwarz
		// pass; per chunk: a dozen scratch buffers that may each grow
		// once per angular momentum met (s, p, d).
		if limit := 30 * (1 + chunks); lean > limit {
			t.Errorf("%s: %v allocations per call, want O(chunks) ≤ %v", k.name, lean, limit)
		}
	}
}
