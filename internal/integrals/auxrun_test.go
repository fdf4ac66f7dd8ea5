package integrals

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// --- the per-primitive kernels the run-batched ones replaced -------------
//
// Copied in their last shape — one R cube, one ket fold and one bra
// Hermite step per auxiliary primitive, over the same chunking — as the
// oracle of the run-batched drivers. Every value the run-batched kernels
// return keeps these loops' operands and summation order, so the two
// agree bit for bit; the two derivative kernels sum their weighted cubes
// over the members and runs of an atom before the bra step, so they
// agree to 1e-12 of the largest gradient component. The oracle keeps its
// own single-member kernels too (rCube, weightKet, axisSums, deriv, dot),
// so that it does not share the code under test.

// primScratch is the oracle's workspace: an eriScratch with a single R
// cube and the buffers of the single-member bra step.
type primScratch struct {
	eriScratch
	r        rCube
	gw, h, s []float64
}

// rCube holds Hermite Coulomb integrals R⁰_{tuv} for t+u+v ≤ tmax in a
// flat cube of edge n = tmax+1: R⁰_{tuv} = val[(t·n+u)·n+v].
type rCube struct {
	n          int
	val, other []float64 // the finished level and the ping-pong partner
	boys       []float64
}

// fill evaluates R⁰_{tuv}(α, Δ) for t+u+v ≤ tmax where Δ = P−Q.
// Levels m = tmax … 0 are built downward; level m only needs entries
// with t+u+v ≤ tmax−m.
func (r *rCube) fill(tmax int, alpha float64, dx, dy, dz float64) {
	n := tmax + 1
	r.n = n
	r.boys = grow(r.boys, n)
	r.val = grow(r.val, n*n*n)
	r.other = grow(r.other, n*n*n)
	f := r.boys
	boys(tmax, alpha*(dx*dx+dy*dy+dz*dz), f)
	// f[m] ← (−2α)^m·F_m, the R^m_{000} seeds.
	pw := 1.0
	for m := range f {
		f[m] *= pw
		pw *= -2 * alpha
	}

	cur, prev := r.val, r.other
	for m := tmax; m >= 0; m-- {
		lim := tmax - m
		cur[0] = f[m]
		for v := 1; v <= lim; v++ {
			val := dz * prev[v-1]
			if v >= 2 {
				val += float64(v-1) * prev[v-2]
			}
			cur[v] = val
		}
		for u := 1; u <= lim; u++ {
			for v := 0; v <= lim-u; v++ {
				val := dy * prev[(u-1)*n+v]
				if u >= 2 {
					val += float64(u-1) * prev[(u-2)*n+v]
				}
				cur[u*n+v] = val
			}
		}
		for t := 1; t <= lim; t++ {
			for u := 0; u <= lim-t; u++ {
				for v := 0; v <= lim-t-u; v++ {
					val := dx * prev[((t-1)*n+u)*n+v]
					if t >= 2 {
						val += float64(t-1) * prev[((t-2)*n+u)*n+v]
					}
					cur[(t*n+u)*n+v] = val
				}
			}
		}
		cur, prev = prev, cur
	}
	r.val, r.other = prev, cur
}

// weightKet contracts g with the weights wk over the ket components:
// gw[t,u,v]·scale = Σ_ck wk[ck]·g[t,u,v; ck] for t+u+v ≤ lbra. A single
// component is weighted by the returned scale alone, gw being g itself.
func (sc *primScratch) weightKet(lbra int, g, wk []float64) (gw []float64, scale float64) {
	nb, nk := lbra+1, len(wk)
	if nk == 1 {
		return g, wk[0]
	}
	sc.gw = grow(sc.gw, nb*nb*nb)
	for t := 0; t <= lbra; t++ {
		for u := 0; u <= lbra-t; u++ {
			for v := 0; v <= lbra-t-u; v++ {
				h := (t*nb+u)*nb + v
				var sum float64
				for ck, x := range g[h*nk:][:nk] {
					sum += wk[ck] * x
				}
				sc.gw[h] = sum
			}
		}
	}
	return sc.gw, 1
}

// dot returns Σ_i x[i]·y[i] over the length of x.
func dot(x, y []float64) float64 {
	var sum float64
	y = y[:len(x)]
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// axisSums contracts the weighted R cube gw over two axes at a time with
// the bra tables e of those axes:
//
//	h[0][t] = Σ_uv e[1][u]·e[2][v]·gw[t,u,v],  t ≤ len(e[0]),
//
// and likewise h[1], h[2].
func (sc *primScratch) axisSums(e *[3][]float64, gw []float64, nb int) (h [3][]float64) {
	ex, ey, ez := e[0], e[1], e[2]
	nx, ny, nz := len(ex), len(ey), len(ez)
	sc.h = grow(sc.h, nx+ny+nz+3)
	h[0], h[1], h[2] = sc.h[:nx+1], sc.h[nx+1:nx+ny+2], sc.h[nx+ny+2:]
	// s[t,u] = Σ_v ez[v]·gw[t,u,v] on the (nx+1)×(ny+1) box but its corner.
	sc.s = grow(sc.s, (nx+1)*(ny+1))
	s := sc.s
	for t := 0; t <= nx; t++ {
		for u := 0; u <= ny && t+u < nx+ny; u++ {
			s[t*(ny+1)+u] = dot(ez, gw[(t*nb+u)*nb:])
		}
	}
	for t := range h[0] {
		h[0][t] = dot(ey, s[t*(ny+1):])
	}
	for u := range h[1] {
		var sum float64
		for t, et := range ex {
			sum += et * s[t*(ny+1)+u]
		}
		h[1][u] = sum
	}
	for v := range h[2] {
		h[2][v] = 0
	}
	for t, et := range ex {
		for u, eu := range ey {
			etu := et * eu
			for v, x := range gw[(t*nb+u)*nb:][:nz+1] {
				h[2][v] += etu * x
			}
		}
	}
	return h
}

// deriv returns the derivative of the bra component's integral with
// respect to centre c, whose exponent is a, by ∂/∂C x^i = 2a·x^{i+1} −
// i·x^{i−1}; h are axisSums of the weighted R cube.
func (bc *braComp) deriv(c int, a float64, h *[3][]float64) (dv [3]float64) {
	for d := 0; d < 3; d++ {
		dv[d] = 2*a*dot(bc.up[c][d], h[d]) - bc.n[c][d]*dot(bc.dn[c][d], h[d])
	}
	return dv
}

// signedKets holds every auxiliary primitive's list of per-component ket
// tables, the MD phase (−1)^t folded in.
type signedKets struct {
	kets []ketE
	koff []int // per shell: offset of its first primitive's kets
}

func newSignedKets(set *basis.Set) *signedKets {
	sk := &signedKets{koff: make([]int, len(set.Shells))}
	for i := range set.Shells {
		sh := &set.Shells[i]
		dim := sh.L + 1
		sk.koff[i] = len(sk.kets)
		for _, a := range sh.Exps {
			tab := make([]float64, dim*dim)
			fillOneCentre(tab, dim, a)
			for l := 0; l < dim; l++ {
				for t := 1; t <= l; t += 2 {
					tab[l*dim+t] = -tab[l*dim+t]
				}
			}
			ek := centerTable{tab, dim}
			for _, K := range cart(sh.L) {
				sk.kets = append(sk.kets, ketE{ek.at(K[0]), ek.at(K[1]), ek.at(K[2])})
			}
		}
	}
	return sk
}

// primKets returns the component tables of primitive p of shell ish,
// which has nc Cartesian components.
func (sk *signedKets) primKets(ish, nc, p int) []ketE {
	return sk.kets[sk.koff[ish]+p*nc:][:nc]
}

// perPrimContractKet folds the R cube with one-centre ket components,
// whose tables are non-zero only at every second entry from the top.
func (sc *primScratch) perPrimContractKet(lbra int, kets []ketE) []float64 {
	if k := kets[0]; len(kets) == 1 && len(k[0])+len(k[1])+len(k[2]) == 3 && k[0][0]*k[1][0]*k[2][0] == 1 {
		return sc.r.val
	}
	nb, nk, n := lbra+1, len(kets), sc.r.n
	sc.g = grow(sc.g, nb*nb*nb*nk)
	r := sc.r.val
	for t := 0; t <= lbra; t++ {
		for u := 0; u <= lbra-t; u++ {
			for v := 0; v <= lbra-t-u; v++ {
				g := sc.g[((t*nb+u)*nb+v)*nk:][:nk]
				for ck := range kets {
					ex, ey, ez := kets[ck][0], kets[ck][1], kets[ck][2]
					var sum float64
					for t2 := (len(ex) - 1) & 1; t2 < len(ex); t2 += 2 {
						for u2 := (len(ey) - 1) & 1; u2 < len(ey); u2 += 2 {
							etu := ex[t2] * ey[u2]
							row := r[((t+t2)*n+u+u2)*n+v:]
							for v2 := (len(ez) - 1) & 1; v2 < len(ez); v2 += 2 {
								sum += etu * ez[v2] * row[v2]
							}
						}
					}
					g[ck] = sum
				}
			}
		}
	}
	return sc.g
}

func (sc *primScratch) perPrimTwoCenterBlock(aux *basis.Set, ip, iq int, bra *centerTables, ket *signedKets, zeta *linalg.Mat, factor float64, grad []float64) []float64 {
	sp, sq := &aux.Shells[ip], &aux.Shells[iq]
	compP, compQ := cart(sp.L), cart(sq.L)
	nq := len(compQ)
	deriv := grad != nil
	lbra := sp.L
	if deriv {
		lbra++
	} else {
		sc.blk = grow(sc.blk, len(compP)*nq)
		for i := range sc.blk {
			sc.blk[i] = 0
		}
	}
	nb := lbra + 1
	dx := sp.Center[0] - sq.Center[0]
	dy := sp.Center[1] - sq.Center[1]
	dz := sp.Center[2] - sq.Center[2]
	for p, a := range sp.Exps {
		eb := bra.prim(ip, sp.L, p)
		for q, b := range sq.Exps {
			alpha := a * b / (a + b)
			pre := twoERIPre / (a * b * math.Sqrt(a+b))
			sc.r.fill(lbra+sq.L, alpha, dx, dy, dz)
			g := sc.perPrimContractKet(lbra, ket.primKets(iq, nq, q))
			for cp, P := range compP {
				cf := sp.Coefs[cp][p] * pre
				bc := braComp{e: [3][]float64{eb.at(P[0]), eb.at(P[1]), eb.at(P[2])}}
				if !deriv {
					acc := sc.hermiteAxpy(g, bc.e[0], bc.e[1], bc.e[2], nb, nq)
					for cq, v := range acc {
						sc.blk[cp*nq+cq] += cf * sq.Coefs[cq][q] * v
					}
					continue
				}
				sc.acc = grow(sc.acc, nq)
				var weighted bool
				for cq := range sc.acc {
					w := (zeta.At(sp.Start+cp, sq.Start+cq) + zeta.At(sq.Start+cq, sp.Start+cp)) * factor
					sc.acc[cq] = w * sq.Coefs[cq][q]
					weighted = weighted || w != 0
				}
				if !weighted {
					continue
				}
				for d, i := range P {
					bc.up[0][d], bc.n[0][d] = eb.at(i+1), float64(i)
					if i > 0 {
						bc.dn[0][d] = eb.at(i - 1)
					}
				}
				gw, scale := sc.weightKet(lbra, g, sc.acc)
				h := sc.axisSums(&bc.e, gw, nb)
				dv := bc.deriv(0, a, &h)
				for d := 0; d < 3; d++ {
					grad[3*sp.Atom+d] += cf * scale * dv[d]
					grad[3*sq.Atom+d] -= cf * scale * dv[d]
				}
			}
		}
	}
	return sc.blk
}

func (sc *primScratch) perPrimThreeCenterPair(sa, sb *basis.Shell, aux *basis.Set, ket *signedKets, out *linalg.Tensor3, grad []float64) {
	ncb := sb.NCart()
	deriv := grad != nil
	extra := 0
	if deriv {
		extra = 1
	}
	lbra := sa.L + sb.L + extra
	nb := lbra + 1
	var ab, pab [3]float64
	var ab2 float64
	for d := 0; d < 3; d++ {
		ab[d] = sa.Center[d] - sb.Center[d]
		ab2 += ab[d] * ab[d]
	}
	e := &sc.e
	for p, a := range sa.Exps {
		for q, b := range sb.Exps {
			if primPairBound(sa, sb, p, q, ab2) < primPairThresh {
				continue
			}
			pexp := a + b
			for d := 0; d < 3; d++ {
				e[d].fill(sa.L+extra, sb.L+extra, a, b, ab[d])
				pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
			}
			comps := sc.braComps(sa, sb, p, q, deriv, deriv)
			for ip := range aux.Shells {
				if !sc.live[ip] {
					continue
				}
				sp := &aux.Shells[ip]
				nk := sp.NCart()
				var gA, gB [3]float64
				for pp, c := range sp.Exps {
					alpha := pexp * c / (pexp + c)
					pre := twoERIPre / (pexp * c * math.Sqrt(pexp+c))
					sc.r.fill(lbra+sp.L, alpha, pab[0]-sp.Center[0], pab[1]-sp.Center[1], pab[2]-sp.Center[2])
					g := sc.perPrimContractKet(lbra, ket.primKets(ip, nk, pp))
					for i := range comps {
						bc := &comps[i]
						cf := bc.cf * pre
						if !deriv {
							ca, cb := i/ncb, i%ncb
							acc := sc.hermiteAxpy(g, bc.e[0], bc.e[1], bc.e[2], nb, nk)
							row := out.Data[(sp.Start*out.N2+sa.Start+ca)*out.N3+sb.Start+cb:]
							for ck, v := range acc {
								row[ck*out.N2*out.N3] += cf * sp.Coefs[ck][pp] * v
							}
							continue
						}
						sc.acc = grow(sc.acc, nk)
						var weighted bool
						for ck, w := range sc.w[i*aux.N+sp.Start:][:nk] {
							sc.acc[ck] = w * sp.Coefs[ck][pp]
							weighted = weighted || w != 0
						}
						if !weighted {
							continue
						}
						gw, scale := sc.weightKet(lbra, g, sc.acc)
						h := sc.axisSums(&bc.e, gw, nb)
						dA, dB := bc.deriv(0, a, &h), bc.deriv(1, b, &h)
						cf *= scale
						for d := 0; d < 3; d++ {
							gA[d] += cf * dA[d]
							gB[d] += cf * dB[d]
						}
					}
				}
				if deriv {
					for d := 0; d < 3; d++ {
						grad[3*sa.Atom+d] += gA[d]
						grad[3*sb.Atom+d] += gB[d]
						grad[3*sp.Atom+d] -= gA[d] + gB[d]
					}
				}
			}
		}
	}
}

func perPrimTwoCenter(aux *basis.Set) *linalg.Mat {
	m := linalg.NewMat(aux.N, aux.N)
	bra, ket := newCenterTables(aux, 0), newSignedKets(aux)
	pairs := upperPairs(len(aux.Shells))
	parallelFor(len(pairs), func(lo, hi int) {
		var sc primScratch
		for idx := lo; idx < hi; idx++ {
			ip, iq := pairs[idx][0], pairs[idx][1]
			sp, sq := &aux.Shells[ip], &aux.Shells[iq]
			blk := sc.perPrimTwoCenterBlock(aux, ip, iq, bra, ket, nil, 0, nil)
			nq := sq.NCart()
			for i := 0; i < sp.NCart(); i++ {
				for j := 0; j < nq; j++ {
					v := blk[i*nq+j]
					m.Set(sp.Start+i, sq.Start+j, v)
					m.Set(sq.Start+j, sp.Start+i, v)
				}
			}
		}
	})
	return m
}

func perPrimTwoCenterDeriv(aux *basis.Set, zeta *linalg.Mat, factor float64, grad []float64) {
	bra, ket := newCenterTables(aux, 1), newSignedKets(aux)
	pairs := upperPairs(len(aux.Shells))
	reduceGrads(len(pairs), grad, func(lo, hi int, buf []float64) {
		var sc primScratch
		for idx := lo; idx < hi; idx++ {
			ip, iq := pairs[idx][0], pairs[idx][1]
			if aux.Shells[ip].Atom != aux.Shells[iq].Atom {
				sc.perPrimTwoCenterBlock(aux, ip, iq, bra, ket, zeta, factor, buf)
			}
		}
	})
}

func perPrimSchwarzAux(aux *basis.Set) []float64 {
	q := make([]float64, len(aux.Shells))
	bra, ket := newCenterTables(aux, 0), newSignedKets(aux)
	parallelFor(len(aux.Shells), func(lo, hi int) {
		var sc primScratch
		for i := lo; i < hi; i++ {
			blk := sc.perPrimTwoCenterBlock(aux, i, i, bra, ket, nil, 0, nil)
			nc := aux.Shells[i].NCart()
			var mx float64
			for c := 0; c < nc; c++ {
				if v := math.Abs(blk[c*nc+c]); v > mx {
					mx = v
				}
			}
			q[i] = math.Sqrt(mx)
		}
	})
	return q
}

func perPrimThreeCenterScreened(bs, aux *basis.Set, sw *linalg.Mat, thresh float64) *linalg.Tensor3 {
	t := linalg.NewTensor3(aux.N, bs.N, bs.N)
	screen := sw != nil && thresh > 0
	var qaux []float64
	pairs := upperPairs(len(bs.Shells))
	if screen {
		qaux = perPrimSchwarzAux(aux)
		var qmax float64
		for _, v := range qaux {
			qmax = math.Max(qmax, v)
		}
		kept := pairs[:0]
		for _, pr := range pairs {
			if sw.At(pr[0], pr[1])*qmax >= thresh {
				kept = append(kept, pr)
			}
		}
		pairs = kept
	}
	ket := newSignedKets(aux)
	parallelFor(len(pairs), func(lo, hi int) {
		sc := primScratch{eriScratch: eriScratch{live: make([]bool, len(aux.Shells))}}
		for idx := lo; idx < hi; idx++ {
			ia, ib := pairs[idx][0], pairs[idx][1]
			for ip := range sc.live {
				sc.live[ip] = !screen || sw.At(ia, ib)*qaux[ip] >= thresh
			}
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			sc.perPrimThreeCenterPair(sa, sb, aux, ket, t, nil)
			na, nb := sa.NCart(), sb.NCart()
			for ip := range aux.Shells {
				if !sc.live[ip] {
					continue
				}
				sp := &aux.Shells[ip]
				for P := sp.Start; P < sp.Start+sp.NCart(); P++ {
					blk := t.Data[P*t.N2*t.N3:][:t.N2*t.N3]
					for mu := sa.Start; mu < sa.Start+na; mu++ {
						for nu, v := range blk[mu*t.N3+sb.Start:][:nb] {
							blk[(sb.Start+nu)*t.N3+mu] = v
						}
					}
				}
			}
		}
	})
	return t
}

func perPrimThreeCenterDeriv(bs, aux *basis.Set, z *linalg.Tensor3, factor float64, grad []float64) {
	ket := newSignedKets(aux)
	pairs := upperPairs(len(bs.Shells))
	reduceGrads(len(pairs), grad, func(lo, hi int, buf []float64) {
		sc := primScratch{eriScratch: eriScratch{live: make([]bool, len(aux.Shells))}}
		for idx := lo; idx < hi; idx++ {
			ia, ib := pairs[idx][0], pairs[idx][1]
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			f := factor
			if ia == ib {
				f *= 0.5
			}
			sc.gatherWeights(sa, sb, aux, z, f)
			sc.perPrimThreeCenterPair(sa, sb, aux, ket, nil, buf)
		}
	})
}

// --- exactness -----------------------------------------------------------

// sameBits reports the first index where got and want differ in any bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: element %d is %.17g, per-primitive %.17g", what, i, got[i], want[i])
			return
		}
	}
}

// nearDerivs fails unless got is within 1e-12 of the larger of scale
// and the largest component of want, elementwise: the bound of the
// derivative kernels, which sum in another order than the per-primitive
// ones.
func nearDerivs(t *testing.T, what string, got, want []float64, scale float64) {
	t.Helper()
	if d, s := maxAbsDiff(got, want); d > 1e-12*math.Max(s, scale) {
		t.Errorf("%s: differs from per-primitive by %.3g (scale %.3g, %.3g)", what, d, s, scale)
	}
}

// magnitude returns the largest component of v.
func magnitude(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// contracted pairs up consecutive shells of each run of aux into
// two-primitive shells, so that a run holds several members of one shell
// — the layout a contracted auxiliary basis would have.
func contracted(aux *basis.Set) *basis.Set {
	var shells []basis.Shell
	for i := 0; i < len(aux.Shells); i++ {
		a := &aux.Shells[i]
		exps, coefs := []float64{a.Exps[0]}, []float64{1}
		if i+1 < len(aux.Shells) {
			if b := &aux.Shells[i+1]; b.Atom == a.Atom && b.L == a.L {
				exps, coefs = append(exps, b.Exps[0]), append(coefs, -0.6)
				i++
			}
		}
		shells = append(shells, basis.NewCustomShell(a.Atom, a.Center, a.L, exps, coefs))
	}
	return basis.FromShells(aux.Name+"-contracted", aux.NAtoms, shells...)
}

// The run-batched kernels against the per-primitive ones at GOMAXPROCS 1
// and 4 — the values bit for bit, the two derivative kernels to 1e-12 of
// the largest component: the sto-3g water trimer; a dzp water dimer (d
// bra shells, f auxiliaries); a water dimer at 8 Å Schwarz-screened at
// 1e-8, whose runs are partly live; weights with every third auxiliary
// shell zeroed; and two-primitive auxiliary shells, several members of
// one shell in a run.
func TestRunBatchedKernelsMatchPerPrimitive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type kase struct {
		name       string
		g          *molecule.Geometry
		orb        string
		thresh     float64 // ThreeCenterScreened threshold besides 0 and 1e-12
		zeroEvery3 bool
		contract   bool
	}
	cases := []kase{
		{"water trimer sto-3g", molecule.WaterCluster(3), "sto-3g", 0, false, false},
		{"water dimer dzp", molecule.WaterCluster(2), "dzp", 0, false, false},
		{"water dimer at 8 Å, screened 1e-8", molecule.WaterDimer(8), "sto-3g", 1e-8, false, false},
		{"water dimer, every third aux shell weightless", molecule.WaterCluster(2), "sto-3g", 0, true, false},
		{"water dimer, contracted aux shells", molecule.WaterCluster(2), "sto-3g", 0, false, true},
	}
	rng := rand.New(rand.NewSource(25))
	for _, c := range cases {
		bs, err := basis.Build(c.orb, c.g)
		if err != nil {
			t.Fatal(err)
		}
		aux := basis.BuildAux(bs, c.g, basis.AuxOptions{})
		if c.contract {
			aux = contracted(aux)
		}
		sw := SchwarzShellPairs(bs)
		z := randTensor(rng, aux.N, bs.N, bs.N)
		zeta := randWeight(rng, aux.N)
		if c.zeroEvery3 {
			for ip := range aux.Shells {
				if ip%3 != 0 {
					continue
				}
				sp := &aux.Shells[ip]
				for P := sp.Start; P < sp.Start+sp.NCart(); P++ {
					clear(z.Slice(P).Data)
					for Q := 0; Q < aux.N; Q++ {
						zeta.Set(P, Q, 0)
						zeta.Set(Q, P, 0)
					}
				}
			}
		}
		threshs := []float64{0, 1e-12}
		if c.thresh > 0 {
			threshs = append(threshs, c.thresh)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			name := func(what string) string { return fmt.Sprintf("%s, GOMAXPROCS %d: %s", c.name, procs, what) }
			for _, th := range threshs {
				sameBits(t, name("ThreeCenterScreened"), ThreeCenterScreened(bs, aux, sw, th).Data,
					perPrimThreeCenterScreened(bs, aux, sw, th).Data)
			}
			got, want := make([]float64, 3*bs.NAtoms), make([]float64, 3*bs.NAtoms)
			ThreeCenterDeriv(bs, aux, z, 0.7, got)
			perPrimThreeCenterDeriv(bs, aux, z, 0.7, want)
			nearDerivs(t, name("ThreeCenterDeriv"), got, want, 0)

			sameBits(t, name("TwoCenter"), TwoCenter(aux).Data, perPrimTwoCenter(aux).Data)
			got, want = make([]float64, 3*bs.NAtoms), make([]float64, 3*bs.NAtoms)
			TwoCenterDeriv(aux, zeta, -1.3, got)
			perPrimTwoCenterDeriv(aux, zeta, -1.3, want)
			nearDerivs(t, name("TwoCenterDeriv"), got, want, 0)

			sameBits(t, name("SchwarzAux"), SchwarzAux(aux), perPrimSchwarzAux(aux))
		}
	}
}

// FuzzAuxRun: one bra primitive pair (exponents, centres, L ≤ 2) against
// one run (K 1–10 members, L 0–3, even-tempered exponents, one centre,
// one to three primitives per shell) with a random live mask, batched
// against per-primitive: the three-centre values and derivatives of the
// pair, and the two-centre metric, its derivative and the Schwarz factors
// with the bra as an auxiliary shell of its own — values bit for bit,
// derivatives to 1e-12 of the largest component. Random signs of the
// weights and run coefficients can cancel a derivative to far below the
// terms it sums, whose rounding the two orders share unequally, so that
// component is the one of the same derivatives with every weight and
// coefficient made positive when that is larger. The seeds run with
// every plain go test.
func FuzzAuxRun(f *testing.F) {
	f.Add(uint16(300), uint16(500), uint16(100), uint16(400), uint8(0), uint8(9), uint16(0xffff), int64(1))
	f.Add(uint16(900), uint16(20), uint16(700), uint16(1000), uint8(26), uint8(5), uint16(0x2d5), int64(2))
	f.Add(uint16(0), uint16(1023), uint16(512), uint16(0), uint8(17), uint8(0), uint16(1), int64(3))
	f.Add(uint16(640), uint16(640), uint16(50), uint16(256), uint8(35), uint8(7), uint16(0x155), int64(4))
	f.Add(uint16(500), uint16(300), uint16(200), uint16(700), uint8(22), uint8(0x29), uint16(0x3b), int64(5))
	f.Fuzz(func(t *testing.T, ea, eb, ec, ratio uint16, ls, nk uint8, mask uint16, seed int64) {
		exp := func(e uint16) float64 { return 0.1 * math.Exp2(float64(e%1024)/128) } // [0.1, 25.6)
		la, lb, l := int(ls%3), int(ls/3%3), int(ls/9%4)
		K, nprim := 1+int(nk%10), 1+int(nk/10%3)
		rng := rand.New(rand.NewSource(seed))
		centre := func() (c [3]float64) {
			for d := range c {
				c[d] = 4*rng.Float64() - 2
			}
			return c
		}
		sa := basis.NewCustomShell(0, centre(), la, []float64{exp(ea)}, []float64{1})
		sb := basis.NewCustomShell(1, centre(), lb, []float64{exp(eb)}, []float64{1})
		bs := basis.FromShells("bra", 3, sa, sb)
		c0, r := exp(ec), 1.2+float64(ratio%1024)/512
		cc := centre()
		var run, absRun []basis.Shell
		for k0 := 0; k0 < K; k0 += nprim {
			var exps, coefs, abs []float64
			for k := k0; k < min(K, k0+nprim); k++ {
				c := 2*rng.Float64() - 1
				exps, coefs, abs = append(exps, c0*math.Pow(r, float64(k))), append(coefs, c), append(abs, math.Abs(c))
			}
			run = append(run, basis.NewCustomShell(2, cc, l, exps, coefs))
			absRun = append(absRun, basis.NewCustomShell(2, cc, l, exps, abs))
		}
		aux := basis.FromShells("run", 3, run...)
		live := make([]bool, len(run))
		for s := range live {
			live[s] = mask>>s&1 == 1
		}

		got, want := eriScratch{live: live}, primScratch{eriScratch: eriScratch{live: live}}
		ar, ket := newAuxRuns(aux), newSignedKets(aux)
		got.reserveRuns(ar, la+lb+1, true)
		outG, outW := linalg.NewTensor3(aux.N, bs.N, bs.N), linalg.NewTensor3(aux.N, bs.N, bs.N)
		got.threeCenterPair(&bs.Shells[0], &bs.Shells[1], ar, outG, nil)
		want.perPrimThreeCenterPair(&bs.Shells[0], &bs.Shells[1], aux, ket, outW, nil)
		sameBits(t, "three-centre values", outG.Data, outW.Data)

		w, absW := make([]float64, sa.NCart()*sb.NCart()*aux.N), make([]float64, sa.NCart()*sb.NCart()*aux.N)
		for i := range w {
			w[i] = rng.NormFloat64()
			absW[i] = math.Abs(w[i])
		}
		gG, gW, gAbs := make([]float64, 9), make([]float64, 9), make([]float64, 9)
		got.w, want.w = w, absW
		want.perPrimThreeCenterPair(&bs.Shells[0], &bs.Shells[1], basis.FromShells("run", 3, absRun...), ket, nil, gAbs)
		want.w = w
		got.threeCenterPair(&bs.Shells[0], &bs.Shells[1], ar, nil, gG)
		want.perPrimThreeCenterPair(&bs.Shells[0], &bs.Shells[1], aux, ket, nil, gW)
		nearDerivs(t, "three-centre derivatives", gG, gW, magnitude(gAbs))

		aux2 := basis.FromShells("bra+run", 3, append([]basis.Shell{sa}, run...)...)
		sameBits(t, "two-centre values", TwoCenter(aux2).Data, perPrimTwoCenter(aux2).Data)
		zeta := randWeight(rng, aux2.N)
		absZeta := linalg.NewMat(aux2.N, aux2.N)
		for i, v := range zeta.Data {
			absZeta.Data[i] = math.Abs(v)
		}
		gG, gW, gAbs = make([]float64, 9), make([]float64, 9), make([]float64, 9)
		TwoCenterDeriv(aux2, zeta, 1, gG)
		perPrimTwoCenterDeriv(aux2, zeta, 1, gW)
		perPrimTwoCenterDeriv(basis.FromShells("bra+run", 3, append([]basis.Shell{sa}, absRun...)...), absZeta, 1, gAbs)
		nearDerivs(t, "two-centre derivatives", gG, gW, magnitude(gAbs))
		sameBits(t, "Schwarz factors", SchwarzAux(aux2), perPrimSchwarzAux(aux2))
	})
}
