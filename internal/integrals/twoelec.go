package integrals

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
)

// twoERIPre is the 2π^{5/2} prefactor common to all ERI classes.
var twoERIPre = 2 * math.Pow(math.Pi, 2.5)

// cartCache holds basis.CartComponents(l) for l ≤ 7 — the basis sets in
// the repo stop at d orbitals and f auxiliaries, and a derivative raises
// l by one — so the hot loops do not rebuild the lists.
var cartCache = func() (c [8][][3]int) {
	for l := range c {
		c[l] = basis.CartComponents(l)
	}
	return c
}()

func cart(l int) [][3]int { return cartCache[l] }

// eriScratch is the workspace one goroutine needs to evaluate Coulomb
// integral blocks without allocating per shell pair or primitive: every
// parallelFor chunk owns one, and its buffers grow to the largest shell
// combination the chunk meets. Every kernel builds its R cubes in run.r
// and takes its bra step with the run kernels (auxrun.go); the
// four-centre and point-charge kernels do so at one member, K = 1.
type eriScratch struct {
	e, ek [3]eTable // bra and ket pair Hermite tables
	g     []float64 // R folded with the ket: [((t·nb+u)·nb+v)·ncol + col] over ket components (and run members)
	acc   []float64 // one (μ,ν)'s values over the columns of g
	blk   []float64 // a value block: two-centre, one-electron, four-centre, or a bra shell pair's three-centre one [(ca·nb+cb)·naux + P]
	w     []float64 // three-centre gradient weights of a bra shell pair: [(ca·nb+cb)·naux + P]
	live  []bool    // per auxiliary shell: not screened out / not weightless
	kets  []ketE    // the ket pair components contractKet folds the R cube with
	comps []braComp // the bra component pairs of one primitive pair
	run   runScratch
}

// ketE is the three 1D Hermite tables of one ket component, the MD ket
// phase (−1)^t folded into the entries.
type ketE [3][]float64

// braComp is one Cartesian component pair (A, B) of a bra primitive
// pair — or one component A of a single bra function — with its Hermite
// tables resolved once for the whole ket loop: e[d] = E^{A_d B_d}, and
// for the derivative with respect to centre c (0: A, 1: B) the tables
// raised and lowered in that centre's power on axis d, with the lowering
// weight n[c][d] = A_d or B_d (dn is nil where that power is 0).
type braComp struct {
	cf     float64 // contraction coefficient product of the primitives
	e      [3][]float64
	up, dn [2][3][]float64
	n      [2][3]float64
}

// braComps resolves the component pairs (A, B) of primitives p of sa
// and q of sb from the pair tables sc.e; with rA (rB) set also the
// tables raised and lowered in A (B), for which sc.e must have been
// filled one power beyond sa.L (sb.L).
func (sc *eriScratch) braComps(sa, sb *basis.Shell, p, q int, rA, rB bool) []braComp {
	compB := cart(sb.L)
	sc.comps = grow(sc.comps, sa.NCart()*len(compB))
	for ca, A := range cart(sa.L) {
		for cb, B := range compB {
			bc := &sc.comps[ca*len(compB)+cb]
			*bc = braComp{cf: sa.Coefs[ca][p] * sb.Coefs[cb][q]}
			for d := 0; d < 3; d++ {
				et, i, j := &sc.e[d], A[d], B[d]
				bc.e[d] = et.at(i, j)
				if rA {
					bc.up[0][d], bc.n[0][d] = et.at(i+1, j), float64(i)
					if i > 0 {
						bc.dn[0][d] = et.at(i-1, j)
					}
				}
				if rB {
					bc.up[1][d], bc.n[1][d] = et.at(i, j+1), float64(j)
					if j > 0 {
						bc.dn[1][d] = et.at(i, j-1)
					}
				}
			}
		}
	}
	return sc.comps
}

// contractKet folds the R cube with the ket pair components kets:
//
//	g[t,u,v; ck] = Σ_{t'u'v'} E_{t'}^{K_x}·E_{u'}^{K_y}·E_{v'}^{K_z}·(−1)^{t'+u'+v'}·R_{t+t',u+u',v+v'}
//
// for every bra Hermite index t+u+v ≤ lbra over the one R cube in
// sc.run.r, and returns g. A lone s ket pair with E = 1 folds nothing:
// its g is the R cube itself, whose edge is then nb. (The auxiliary kets
// of the two- and three-centre kernels are folded a run at a time by
// foldRun.)
func (sc *eriScratch) contractKet(lbra int, kets []ketE) []float64 {
	if k := kets[0]; len(kets) == 1 && len(k[0])+len(k[1])+len(k[2]) == 3 && k[0][0]*k[1][0]*k[2][0] == 1 {
		return sc.run.r.val
	}
	nb, nk, n := lbra+1, len(kets), sc.run.r.n
	sc.g = grow(sc.g, nb*nb*nb*nk)
	r := sc.run.r.val
	for t := 0; t <= lbra; t++ {
		for u := 0; u <= lbra-t; u++ {
			for v := 0; v <= lbra-t-u; v++ {
				g := sc.g[((t*nb+u)*nb+v)*nk:][:nk]
				for ck := range kets {
					ex, ey, ez := kets[ck][0], kets[ck][1], kets[ck][2]
					var sum float64
					for t2, et := range ex {
						for u2, eu := range ey {
							etu := et * eu
							row := r[((t+t2)*n+u+u2)*n+v:]
							for v2, ev := range ez {
								sum += etu * ev * row[v2]
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

// hermiteAxpy is the bra Hermite → Cartesian step: it contracts the bra
// tables ex, ey, ez with each of the nk interleaved cubes of g,
//
//	acc[ck] = Σ_{tuv} (ex[t]·ey[u]·ez[v])·g[((t·nb+u)·nb+v)·nk + ck],
//
// skipping the rows of zero table entries, and returns acc.
func (sc *eriScratch) hermiteAxpy(g, ex, ey, ez []float64, nb, nk int) []float64 {
	sc.acc = grow(sc.acc, nk)
	acc := sc.acc
	for ck := range acc {
		acc[ck] = 0
	}
	for t, et := range ex {
		if et == 0 {
			continue
		}
		for u, eu := range ey {
			if eu == 0 {
				continue
			}
			etu := et * eu
			for v, ev := range ez {
				e3 := etu * ev
				for ck, x := range g[((t*nb+u)*nb+v)*nk:][:nk] {
					acc[ck] += e3 * x
				}
			}
		}
	}
	return acc
}

// TwoCenter returns the Coulomb metric (P|Q) over the auxiliary basis.
func TwoCenter(aux *basis.Set) *linalg.Mat {
	m := linalg.NewMat(aux.N, aux.N)
	ar, bra := newAuxRuns(aux), newCenterTables(aux, 0)
	pairs := upperPairs(len(aux.Shells))
	parallelFor(len(pairs), func(lo, hi int) {
		var sc eriScratch
		sc.reserveRuns(ar, aux.MaxL(), false)
		for idx := lo; idx < hi; {
			ip, end := pairs[idx][0], sc.gatherSegment(ar, pairs, idx, hi)
			sp := &aux.Shells[ip]
			bt := &sc.run.batches[0]
			blk := sc.twoCenterRun(ar, ip, bt, bra, nil, 0, nil)
			np := sp.NCart()
			for iq := pairs[idx][1]; iq <= pairs[end-1][1]; iq++ {
				sq := &aux.Shells[iq]
				nq := sq.NCart()
				for i := 0; i < np; i++ {
					for j, v := range blk[i*nq:][:nq] {
						m.Set(sp.Start+i, sq.Start+j, v)
						m.Set(sq.Start+j, sp.Start+i, v)
					}
				}
				blk = blk[np*nq:]
			}
			idx = end
		}
	})
	return m
}

// TwoCenterDeriv accumulates factor·Σ_PQ ζ_PQ ∂(P|Q)/∂R into grad.
// Every unordered shell pair on two different atoms is visited once:
// (P|Q) depends on the two centres through their difference only, so the
// ket-centre derivative is minus the bra one and a pair on one atom
// contributes nothing. The weighted cubes of one bra shell against the
// ket shells of one atom are summed first (twoCenterRun), and their
// derivative is taken once (twoCenterTerms). Unlike the values, the sum
// is not in the order of a visit of one primitive pair at a time: the
// result agrees with that visit to rounding (~1e-14 of the largest
// component on water clusters), not bit for bit, and repeats bit for bit
// at a fixed GOMAXPROCS.
func TwoCenterDeriv(aux *basis.Set, zeta *linalg.Mat, factor float64, grad []float64) {
	ar, bra := newAuxRuns(aux), newCenterTables(aux, 1)
	pairs := upperPairs(len(aux.Shells))
	reduceGrads(len(pairs), grad, func(lo, hi int, buf []float64) {
		var sc eriScratch
		sc.reserveRuns(ar, aux.MaxL()+1, true)
		for idx := lo; idx < hi; {
			ip, end := pairs[idx][0], sc.gatherSegment(ar, pairs, idx, hi)
			if bt := &sc.run.batches[0]; aux.Shells[ip].Atom != bt.atom {
				sc.twoCenterRun(ar, ip, bt, bra, zeta, factor, buf)
				if end == hi || pairs[end][0] != ip || aux.Shells[pairs[end][1]].Atom != bt.atom {
					sc.twoCenterTerms(aux, ip, bt.atom, bra, buf)
				}
			}
			idx = end
		}
	})
}

// gatherSegment gathers, as the one batch of sc.run, the ket shells of
// the longest stretch of pairs[idx:hi] — one chunk's share of
// upperPairs — that has one bra shell and whose ket shells lie in one
// run, and returns the index one past it.
func (sc *eriScratch) gatherSegment(ar *auxRuns, pairs [][2]int, idx, hi int) int {
	ip, run := pairs[idx][0], ar.runOf[pairs[idx][1]]
	end := idx + 1
	for end < hi && pairs[end][0] == ip && ar.runOf[pairs[end][1]] == run {
		end++
	}
	sc.run.reset()
	sc.run.gather(ar, pairs[idx][1], pairs[end-1][1]+1, nil)
	return end
}

// twoCenterRun computes the (P|Q) blocks of bra shell ip of aux against
// the ket shells of batch bt — consecutive shells of one run — returned
// as [((s−s0)·nP + i)·nQ + j] for ket shell s in scratch the next call
// overwrites. With grad non-nil it instead adds, per bra primitive p and
// component cp, the folded cubes — each member's scaled by its prefactor
// through its Boys seeds — contracted with the weights (ζ_PQ +
// ζ_QP)·factor into the cube sc.run.cube[(p·nP + cp)·nb³:], for
// twoCenterTerms. bra holds the unsigned one-centre tables of aux (built
// with extra = 1 for derivatives).
func (sc *eriScratch) twoCenterRun(ar *auxRuns, ip int, bt *runBatch, bra *centerTables, zeta *linalg.Mat, factor float64, grad []float64) []float64 {
	aux, rs := ar.set, &sc.run
	sp := &aux.Shells[ip]
	compP := cart(sp.L)
	np, nq, K := len(compP), len(cart(bt.l)), bt.hi-bt.lo
	members, prims, cc := rs.shell[bt.lo:bt.hi], rs.prim[bt.lo:bt.hi], rs.cc[bt.cc:][:nq*K]
	s0 := members[0]
	deriv := grad != nil
	lbra := sp.L
	if deriv {
		lbra++
		// All zero between twoCenterTerms calls.
		rs.cube = grow(rs.cube, len(sp.Exps)*np*(lbra+1)*(lbra+1)*(lbra+1))
		rs.wk = grow(rs.wk, np*nq*K)
		for cp := 0; cp < np; cp++ {
			for k, s := range members {
				Q := aux.Shells[s].Start
				for cq := 0; cq < nq; cq++ {
					w := (zeta.At(sp.Start+cp, Q+cq) + zeta.At(Q+cq, sp.Start+cp)) * factor
					rs.wk[(cp*nq+cq)*K+k] = w * cc[cq*K+k]
				}
			}
		}
	} else {
		sc.blk = grow(sc.blk, (members[K-1]-s0+1)*np*nq)
		clear(sc.blk)
	}
	nb := lbra + 1
	dx := sp.Center[0] - bt.center[0]
	dy := sp.Center[1] - bt.center[1]
	dz := sp.Center[2] - bt.center[2]
	alpha, pre, scales := rs.alpha[:K], rs.pre[:K], []float64(nil)
	if deriv {
		scales = pre
	}
	for p, a := range sp.Exps {
		eb := bra.prim(ip, sp.L, p)
		for k, s := range members {
			b := aux.Shells[s].Exps[prims[k]]
			alpha[k] = a * b / (a + b)
			pre[k] = twoERIPre / (a * b * math.Sqrt(a+b))
		}
		rs.r.fill(lbra+bt.l, alpha, scales, dx, dy, dz)
		g := sc.foldRun(lbra, bt)
		if deriv {
			weightRun(lbra, g, nq*K, rs.wk, nq*K, np, rs.cube[p*np*nb*nb*nb:])
			continue
		}
		for cp, P := range compP {
			acc := sc.hermiteAxpy(g, eb.at(P[0]), eb.at(P[1]), eb.at(P[2]), nb, nq*K)
			for k, s := range members {
				cf := sp.Coefs[cp][p] * pre[k]
				blk := sc.blk[((s-s0)*np+cp)*nq:][:nq]
				for cq := range blk {
					blk[cq] += cf * cc[cq*K+k] * acc[cq*K+k]
				}
			}
		}
	}
	return sc.blk
}

// twoCenterTerms takes the bra-centre derivative of the cubes twoCenterRun
// summed for bra shell ip against ket atom atom, adds it on the bra atom
// and subtracts it on the ket atom, and clears the cubes.
func (sc *eriScratch) twoCenterTerms(aux *basis.Set, ip, atom int, bra *centerTables, grad []float64) {
	rs, sp := &sc.run, &aux.Shells[ip]
	compP, nb := cart(sp.L), sp.L+2
	n3 := nb * nb * nb
	for p, a := range sp.Exps {
		eb := bra.prim(ip, sp.L, p)
		for cp, P := range compP {
			bc := braComp{e: [3][]float64{eb.at(P[0]), eb.at(P[1]), eb.at(P[2])}}
			for d, i := range P {
				bc.up[0][d], bc.n[0][d] = eb.at(i+1), float64(i)
				if i > 0 {
					bc.dn[0][d] = eb.at(i - 1)
				}
			}
			g := rs.cube[(p*len(compP)+cp)*n3:][:n3]
			h := rs.axisSumsRun(&bc.e, g, nb, 1)
			bc.derivRun(0, a, &h, rs.dv[:3], rs.dv[3:4])
			for d, v := range rs.dv[:3] {
				grad[3*sp.Atom+d] += sp.Coefs[cp][p] * v
				grad[3*atom+d] -= sp.Coefs[cp][p] * v
			}
			clear(g)
		}
	}
}

// ThreeCenter returns the three-center ERI tensor (μν|P) stored as
// (P, μ, ν) — the B-tensor precursor of paper Eq. 6.
func ThreeCenter(bs, aux *basis.Set) *linalg.Tensor3 {
	return ThreeCenterScreened(bs, aux, nil, 0)
}

// SchwarzAux returns the per-auxiliary-shell Cauchy–Schwarz bounds
// Q_P = √max|(P|P)| over the shell's diagonal metric block — the
// ket-side factor of the three-center bound |(μν|P)| ≤ Q_μν·Q_P.
func SchwarzAux(aux *basis.Set) []float64 {
	q := make([]float64, len(aux.Shells))
	ar, bra := newAuxRuns(aux), newCenterTables(aux, 0)
	parallelFor(len(aux.Shells), func(lo, hi int) {
		var sc eriScratch
		sc.reserveRuns(ar, aux.MaxL(), false)
		for i := lo; i < hi; i++ {
			sc.run.reset()
			sc.run.gather(ar, i, i+1, nil)
			blk := sc.twoCenterRun(ar, i, &sc.run.batches[0], bra, nil, 0, nil)
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

// primPairThresh is the primitive-pair screen of the three-centre
// kernels: a bra primitive pair whose primPairBound is below it is
// skipped before its auxiliary loop (see ThreeCenterScreened).
const primPairThresh = 1e-14

// primPairBound returns max|c_a|·max|c_b|·exp(−ab/(a+b)·|AB|²) for
// primitive p of sa and q of sb, ab2 = |AB|²: the height of the Gaussian
// product distribution the pair contributes to any (μν|P), largest
// contraction coefficients over the shells' components included.
func primPairBound(sa, sb *basis.Shell, p, q int, ab2 float64) float64 {
	a, b := sa.Exps[p], sb.Exps[q]
	return math.Exp(-a*b/(a+b)*ab2) * maxAbsCoef(sa, p) * maxAbsCoef(sb, q)
}

func maxAbsCoef(sh *basis.Shell, p int) float64 {
	var m float64
	for _, c := range sh.Coefs {
		m = math.Max(m, math.Abs(c[p]))
	}
	return m
}

// ThreeCenterScreened is ThreeCenter with Cauchy–Schwarz screening: a
// bra shell pair whose bound Q_μν·max_P Q_P falls below thresh is
// skipped outright, and a surviving pair skips the individual auxiliary
// shells with Q_μν·Q_P < thresh. sw is SchwarzShellPairs(bs); a nil sw
// or thresh ≤ 0 disables screening. Skipped blocks are exact zeros in
// the returned tensor, and every retained element is computed at full
// precision, so the screened tensor converges elementwise to the
// unscreened one as thresh → 0 with max error below thresh.
//
// The unscreened tensor itself — any thresh, and ThreeCenterDeriv too —
// omits the bra primitive pairs whose primPairBound falls below
// primPairThresh = 1e-14. For s functions the part of (μν|P) one such
// pair would add is exactly its bound times c_P·2π^{5/2}/(p·c·√(p+c))·F_0
// (p = a+b, c the auxiliary exponent, F_0 ≤ 1), a factor of at most a
// few hundred for the most diffuse auxiliary primitives; higher angular
// momenta add Hermite factors of the same order. So each integral is
// within ~1e-12 of the exact one, and the screened tensor within thresh
// plus that: measured 5.2e-13 on a water dimer at 8 Å and 1.1e-13 on
// the trimer, elements up to 6.8 (TestPrimitiveScreenMatchesUnscreened).
func ThreeCenterScreened(bs, aux *basis.Set, sw *linalg.Mat, thresh float64) *linalg.Tensor3 {
	t := linalg.NewTensor3(aux.N, bs.N, bs.N)
	screen := sw != nil && thresh > 0
	var qaux []float64
	pairs := upperPairs(len(bs.Shells))
	if screen {
		qaux = SchwarzAux(aux)
		var qmax float64
		for _, v := range qaux {
			if v > qmax {
				qmax = v
			}
		}
		kept := pairs[:0]
		for _, pr := range pairs {
			if sw.At(pr[0], pr[1])*qmax >= thresh {
				kept = append(kept, pr)
			}
		}
		pairs = kept
	}
	ar := newAuxRuns(aux)
	parallelFor(len(pairs), func(lo, hi int) {
		nc := len(cart(bs.MaxL()))
		sc := eriScratch{live: make([]bool, len(aux.Shells)), blk: make([]float64, nc*nc*aux.N)}
		sc.reserveRuns(ar, 2*bs.MaxL(), false)
		for idx := lo; idx < hi; idx++ {
			ia, ib := pairs[idx][0], pairs[idx][1]
			for ip := range sc.live {
				sc.live[ip] = !screen || sw.At(ia, ib)*qaux[ip] >= thresh
			}
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			sc.threeCenterPair(sa, sb, ar, t, nil)
			// The pair filled (P, μ∈a, ν∈b); mirror it into (P, ν, μ).
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

// ThreeCenterDeriv accumulates factor·Σ_Pμν Z_Pμν ∂(μν|P)/∂R into grad.
// Every unordered bra shell pair is visited once with the weight
// Z_Pμν + Z_Pνμ (halved on a diagonal pair, which the two orientations
// of its own block already cover twice). Per primitive pair and
// component pair the weighted cubes of each auxiliary atom are summed
// first: the atom's derivative is minus the bra's translation derivative
// of its cube by translational invariance, and both bra-centre
// derivatives come from the sum over the atoms by the raise/lower
// relation. That order is not the one of a visit of one auxiliary
// primitive at a time: the result agrees with that visit to rounding
// (~1e-14 of the largest component on water clusters), not bit for bit,
// and repeats bit for bit at a fixed GOMAXPROCS.
func ThreeCenterDeriv(bs, aux *basis.Set, z *linalg.Tensor3, factor float64, grad []float64) {
	ar := newAuxRuns(aux)
	pairs := upperPairs(len(bs.Shells))
	reduceGrads(len(pairs), grad, func(lo, hi int, buf []float64) {
		sc := eriScratch{live: make([]bool, len(aux.Shells))}
		sc.reserveRuns(ar, 2*bs.MaxL()+1, true)
		for idx := lo; idx < hi; idx++ {
			ia, ib := pairs[idx][0], pairs[idx][1]
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			f := factor
			if ia == ib {
				f *= 0.5
			}
			sc.gatherWeights(sa, sb, aux, z, f)
			sc.threeCenterPair(sa, sb, ar, nil, buf)
		}
	})
}

// gatherWeights loads w[(ca·nb+cb)·naux + P] = (Z_Pμν + Z_Pνμ)·factor for
// the bra shell pair and marks the auxiliary shells that carry any
// non-zero weight as live, so a block the contraction would multiply by
// exact zeros (a screened-out B block) is never integrated; an
// all-on-one-atom triple is dropped too, its three derivatives summing
// to zero.
func (sc *eriScratch) gatherWeights(sa, sb *basis.Shell, aux *basis.Set, z *linalg.Tensor3, factor float64) {
	na, nb, naux := sa.NCart(), sb.NCart(), aux.N
	sc.w = grow(sc.w, na*nb*naux)
	for ip := range aux.Shells {
		sp := &aux.Shells[ip]
		live := false
		for P := sp.Start; P < sp.Start+sp.NCart(); P++ {
			for ca := 0; ca < na; ca++ {
				for cb := 0; cb < nb; cb++ {
					w := (z.At(P, sa.Start+ca, sb.Start+cb) + z.At(P, sb.Start+cb, sa.Start+ca)) * factor
					sc.w[(ca*nb+cb)*naux+P] = w
					live = live || w != 0
				}
			}
		}
		sc.live[ip] = live && !(sa.Atom == sb.Atom && sp.Atom == sa.Atom)
	}
}

// threeCenterPair evaluates what one bra shell pair contributes over
// every live auxiliary shell, one run at a time: the runs of ar are
// compacted to their live shells once, up front. A primitive pair under
// primPairThresh is skipped; for every other one the bra Hermite tables
// are built, and resolved per component pair (braComps), once for the
// whole auxiliary loop. With grad nil the integrals (μν|P) are
// accumulated into out(P, μ∈a, ν∈b). Otherwise each run's folded cubes,
// each member's scaled by its prefactor through its Boys seeds, are
// contracted with the gathered weights, over all members and ket
// components, into one Hermite cube per component pair (weightRun),
// summed over the runs of an auxiliary atom: at its last run the atom
// takes minus the bra's translation derivative (auxAtomTerm), and after
// the last run both bra centres take theirs from the sum over the atoms.
func (sc *eriScratch) threeCenterPair(sa, sb *basis.Shell, ar *auxRuns, out *linalg.Tensor3, grad []float64) {
	aux, rs := ar.set, &sc.run
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
	rs.reset()
	for _, run := range ar.runs {
		rs.gather(ar, run[0], run[1], sc.live)
	}
	if len(rs.batches) == 0 {
		return
	}
	nc, n3 := sa.NCart()*ncb, nb*nb*nb
	if deriv {
		sc.stackWeights(nc, aux)
		// nc atom cubes, then nc totals; all zero between calls.
		rs.cube = grow(rs.cube, 2*nc*n3)
	} else {
		// The values accumulate in sc.blk, each element starting from
		// zero as out's does, and are stored once (storePair).
		sc.blk = grow(sc.blk, nc*aux.N)
		for _, s := range rs.shell {
			sp := &aux.Shells[s]
			for i := 0; i < nc; i++ {
				clear(sc.blk[i*aux.N+sp.Start:][:sp.NCart()])
			}
		}
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
			for ib := range rs.batches {
				bt := &rs.batches[ib]
				K := bt.hi - bt.lo
				members, prims := rs.shell[bt.lo:bt.hi], rs.prim[bt.lo:bt.hi]
				alpha, pre, scales := rs.alpha[:K], rs.pre[:K], []float64(nil)
				for k, s := range members {
					c := aux.Shells[s].Exps[prims[k]]
					alpha[k] = pexp * c / (pexp + c)
					pre[k] = twoERIPre / (pexp * c * math.Sqrt(pexp+c))
				}
				if deriv {
					scales = pre
				}
				rs.r.fill(lbra+bt.l, alpha, scales, pab[0]-bt.center[0], pab[1]-bt.center[1], pab[2]-bt.center[2])
				g := sc.foldRun(lbra, bt)
				nk := len(cart(bt.l))
				if deriv {
					weightRun(lbra, g, nk*K, rs.wk[bt.cc:], len(rs.cc), nc, rs.cube)
					if ib+1 == len(rs.batches) || rs.batches[ib+1].atom != bt.atom {
						sc.auxAtomTerm(bt.atom, nb, grad)
					}
					continue
				}
				cc := rs.cc[bt.cc:][:nk*K]
				for i := range comps {
					bc := &comps[i]
					acc := sc.hermiteAxpy(g, bc.e[0], bc.e[1], bc.e[2], nb, nk*K)
					row := sc.blk[i*aux.N:]
					for k, s := range members {
						cf := bc.cf * pre[k]
						for ck, P := 0, aux.Shells[s].Start; ck < nk; ck, P = ck+1, P+1 {
							row[P] += cf * cc[ck*K+k] * acc[ck*K+k]
						}
					}
				}
			}
			if !deriv {
				continue
			}
			dA, dB := rs.dv[:3], rs.dv[3:6]
			for i := range comps {
				bc, tot := &comps[i], rs.cube[(nc+i)*n3:][:n3]
				h := rs.axisSumsRun(&bc.e, tot, nb, 1)
				bc.derivRun(0, a, &h, dA, rs.dv[6:7])
				bc.derivRun(1, b, &h, dB, rs.dv[6:7])
				for d := 0; d < 3; d++ {
					grad[3*sa.Atom+d] += bc.cf * dA[d]
					grad[3*sb.Atom+d] += bc.cf * dB[d]
				}
				clear(tot)
			}
		}
	}
	if !deriv {
		sc.storePair(sa, sb, aux, out)
	}
}

// auxAtomTerm adds to auxiliary atom atom the derivative, with respect
// to its centre, of the atom cubes in sc.run.cube (its runs, summed):
// minus the bra's translation derivative, whose Hermite shift h → h+e_d
// is dot(e[d], h[d][1:]) over axisSumsRun's one-longer sums. It then
// moves each atom cube into its component pair's total.
func (sc *eriScratch) auxAtomTerm(atom, nb int, grad []float64) {
	rs, nc, n3 := &sc.run, len(sc.comps), nb*nb*nb
	for i := range sc.comps {
		bc, g := &sc.comps[i], rs.cube[i*n3:][:n3]
		h := rs.axisSumsRun(&bc.e, g, nb, 1)
		for d := 0; d < 3; d++ {
			dotRun(rs.dv[:1], bc.e[d], h[d][1:])
			grad[3*atom+d] -= bc.cf * rs.dv[0]
		}
		tot := rs.cube[(nc+i)*n3:][:n3]
		for j, v := range g {
			tot[j] += v
		}
		clear(g)
	}
}

// storePair copies the value block of the bra shell pair, accumulated in
// sc.blk at [(ca·nb+cb)·naux + P] for the gathered shells, into
// out(P, μ∈a, ν∈b).
func (sc *eriScratch) storePair(sa, sb *basis.Shell, aux *basis.Set, out *linalg.Tensor3) {
	na, ncb := sa.NCart(), sb.NCart()
	for k, s := range sc.run.shell {
		if k > 0 && sc.run.shell[k-1] == s {
			continue
		}
		sp := &aux.Shells[s]
		for P := sp.Start; P < sp.Start+sp.NCart(); P++ {
			slab := out.Data[P*out.N2*out.N3:]
			for ca := 0; ca < na; ca++ {
				row := slab[(sa.Start+ca)*out.N3+sb.Start:][:ncb]
				for cb := range row {
					row[cb] = sc.blk[(ca*ncb+cb)*aux.N+P]
				}
			}
		}
	}
}

// stackWeights stacks the gathered weights of the bra shell pair's nc
// component pairs like the contraction coefficients, once for all its
// primitive pairs: member k of a batch gets rs.wk[i·ncc + cc + ck·K + k]
// = w_{i,P}·c_P for its component ck, P = its function.
func (sc *eriScratch) stackWeights(nc int, aux *basis.Set) {
	rs := &sc.run
	ncc := len(rs.cc)
	rs.wk = grow(rs.wk, nc*ncc)
	for i := 0; i < nc; i++ {
		w := sc.w[i*aux.N:]
		for _, bt := range rs.batches {
			K, nk := bt.hi-bt.lo, len(cart(bt.l))
			cc, wk := rs.cc[bt.cc:][:nk*K], rs.wk[i*ncc+bt.cc:][:nk*K]
			for k, s := range rs.shell[bt.lo:bt.hi] {
				for ck, P := 0, aux.Shells[s].Start; ck < nk; ck, P = ck+1, P+1 {
					wk[ck*K+k] = w[P] * cc[ck*K+k]
				}
			}
		}
	}
}

// ERIIndex addresses the flat four-center array returned by
// FourCenterAll: ((μ·n+ν)·n+λ)·n+σ.
func ERIIndex(n, mu, nu, la, si int) int { return ((mu*n+nu)*n+la)*n + si }

// FourCenterAll computes the full (μν|λσ) tensor. Memory is O(N⁴); it is
// intended for the conventional-method baselines and for validating the
// RI approximation on small systems.
func FourCenterAll(bs *basis.Set) []float64 {
	n := bs.N
	out := make([]float64, n*n*n*n)
	nsh := len(bs.Shells)
	quartets := make([][4]int, 0, nsh*nsh*nsh*nsh/4)
	for i := 0; i < nsh; i++ {
		for j := i; j < nsh; j++ {
			for k := 0; k < nsh; k++ {
				for l := k; l < nsh; l++ {
					quartets = append(quartets, [4]int{i, j, k, l})
				}
			}
		}
	}
	parallelFor(len(quartets), func(lo, hi int) {
		var ws eriScratch
		for qi := lo; qi < hi; qi++ {
			q := quartets[qi]
			sa, sb, sc, sd := &bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]]
			blk := ws.fourCenterBlock(sa, sb, sc, sd, nil, 0, nil)
			na, nb, nc, nd := sa.NCart(), sb.NCart(), sc.NCart(), sd.NCart()
			for i := 0; i < na; i++ {
				for j := 0; j < nb; j++ {
					for k := 0; k < nc; k++ {
						for l := 0; l < nd; l++ {
							v := blk[((i*nb+j)*nc+k)*nd+l]
							mu, nu, la, si := sa.Start+i, sb.Start+j, sc.Start+k, sd.Start+l
							out[ERIIndex(n, mu, nu, la, si)] = v
							out[ERIIndex(n, nu, mu, la, si)] = v
							out[ERIIndex(n, mu, nu, si, la)] = v
							out[ERIIndex(n, nu, mu, si, la)] = v
						}
					}
				}
			}
		}
	})
	return out
}

// fourCenterBlock computes the (μν|λσ) block of a shell quartet,
// returned flattened as [((i·nb+j)·nc+k)·nd+l] in scratch the next call
// overwrites. With grad non-nil it instead contracts the slot-1
// (bra-left) derivative with the caller-provided weight function
// w4(μ,ν,λ,σ) (global indices), accumulating on the bra-left atom. Per
// primitive quartet the R cube is one member of a run (rRun.fill at
// K = 1), folded once with every (λ,σ) component of the ket pair
// (contractKet); the bra step is that of the run kernels at K = 1 —
// hermiteAxpy for the values; weightRun, axisSumsRun and derivRun for
// the derivative.
func (ws *eriScratch) fourCenterBlock(sa, sb, sc, sd *basis.Shell, w4 func(mu, nu, la, si int) float64, factor float64, grad []float64) []float64 {
	compA, compB, compC, compD := cart(sa.L), cart(sb.L), cart(sc.L), cart(sd.L)
	ncb, ncd := len(compB), len(compD)
	nk := len(compC) * ncd
	deriv := grad != nil
	imax := sa.L
	if deriv {
		imax++
	} else {
		ws.blk = grow(ws.blk, len(compA)*ncb*nk)
		clear(ws.blk)
	}
	lbra := imax + sb.L
	nb := lbra + 1
	var abv, cdv [3]float64
	for d := 0; d < 3; d++ {
		abv[d] = sa.Center[d] - sb.Center[d]
		cdv[d] = sc.Center[d] - sd.Center[d]
	}
	eb, ek, rs := &ws.e, &ws.ek, &ws.run
	for p1, a := range sa.Exps {
		for p2, b := range sb.Exps {
			pexp := a + b
			var pab [3]float64
			for d := 0; d < 3; d++ {
				eb[d].fill(imax, sb.L, a, b, abv[d])
				pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
			}
			comps := ws.braComps(sa, sb, p1, p2, deriv, false)
			for p3, c := range sc.Exps {
				for p4, dd := range sd.Exps {
					qexp := c + dd
					var pcd [3]float64
					for d := 0; d < 3; d++ {
						ek[d].fill(sc.L, sd.L, c, dd, cdv[d])
						ek[d].negateOdd()
						pcd[d] = (c*sc.Center[d] + dd*sd.Center[d]) / qexp
					}
					alpha := [1]float64{pexp * qexp / (pexp + qexp)}
					pre := twoERIPre / (pexp * qexp * math.Sqrt(pexp+qexp))
					rs.r.fill(lbra+sc.L+sd.L, alpha[:], nil, pab[0]-pcd[0], pab[1]-pcd[1], pab[2]-pcd[2])
					ws.kets = ws.kets[:0]
					for _, C := range compC {
						for _, D := range compD {
							ws.kets = append(ws.kets, ketE{ek[0].at(C[0], D[0]), ek[1].at(C[1], D[1]), ek[2].at(C[2], D[2])})
						}
					}
					g := ws.contractKet(lbra, ws.kets)
					for i := range comps {
						bc := &comps[i]
						cf := bc.cf * pre
						if !deriv {
							out := ws.blk[i*nk:][:nk]
							for ck, v := range ws.hermiteAxpy(g, bc.e[0], bc.e[1], bc.e[2], nb, nk) {
								out[ck] += cf * sc.Coefs[ck/ncd][p3] * sd.Coefs[ck%ncd][p4] * v
							}
							continue
						}
						ca, cb := i/ncb, i%ncb
						rs.wk = grow(rs.wk, nk)
						var weighted bool
						for ck := range rs.wk {
							cc, cd := ck/ncd, ck%ncd
							w := w4(sa.Start+ca, sb.Start+cb, sc.Start+cc, sd.Start+cd) * factor
							rs.wk[ck] = w * sc.Coefs[cc][p3] * sd.Coefs[cd][p4]
							weighted = weighted || w != 0
						}
						if !weighted {
							continue
						}
						// A lone ket component is weighted after the dots.
						gw := g
						if nk > 1 {
							rs.gw = grow(rs.gw, nb*nb*nb)
							clear(rs.gw)
							weightRun(lbra, g, nk, rs.wk, nk, 1, rs.gw)
							gw = rs.gw
						} else {
							cf *= rs.wk[0]
						}
						h := rs.axisSumsRun(&bc.e, gw, nb, 1)
						rs.dv = grow(rs.dv, 4)
						bc.derivRun(0, a, &h, rs.dv[:3], rs.dv[3:4])
						for d, v := range rs.dv[:3] {
							grad[3*sa.Atom+d] += cf * v
						}
					}
				}
			}
		}
	}
	return ws.blk
}

// SchwarzShellPairs returns the Cauchy–Schwarz bounds
// Q_ab = √max|(ab|ab)| per shell pair, used to screen quartets.
func SchwarzShellPairs(bs *basis.Set) *linalg.Mat {
	nsh := len(bs.Shells)
	q := linalg.NewMat(nsh, nsh)
	pairs := upperPairs(nsh)
	parallelFor(len(pairs), func(lo, hi int) {
		var ws eriScratch
		for idx := lo; idx < hi; idx++ {
			i, j := pairs[idx][0], pairs[idx][1]
			sa, sb := &bs.Shells[i], &bs.Shells[j]
			blk := ws.fourCenterBlock(sa, sb, sa, sb, nil, 0, nil)
			na, nb := sa.NCart(), sb.NCart()
			var mx float64
			for ii := 0; ii < na; ii++ {
				for jj := 0; jj < nb; jj++ {
					v := math.Abs(blk[((ii*nb+jj)*na+ii)*nb+jj])
					if v > mx {
						mx = v
					}
				}
			}
			v := math.Sqrt(mx)
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	})
	return q
}

// FockDirect builds the two-electron part of the closed-shell Fock matrix
// G_μν = Σ_λσ D_λσ [(μν|λσ) − ½(μλ|νσ)] with integral recomputation and
// Schwarz screening — the conventional O(N⁴) path the paper's RI
// formulation replaces (§V-C).
func FockDirect(bs *basis.Set, dmat *linalg.Mat, sw *linalg.Mat, thresh float64) *linalg.Mat {
	n := bs.N
	nsh := len(bs.Shells)
	dmax := dmat.MaxAbs()
	type quartet struct{ a, b, c, d int }
	var quartets []quartet
	for i := 0; i < nsh; i++ {
		for j := 0; j < nsh; j++ {
			qij := sw.At(i, j)
			for k := 0; k < nsh; k++ {
				for l := 0; l < nsh; l++ {
					if qij*sw.At(k, l)*dmax < thresh {
						continue
					}
					quartets = append(quartets, quartet{i, j, k, l})
				}
			}
		}
	}
	// Two halves, each accumulated into its own matrix and folded in
	// order: with two partials the sum is the same in either order.
	chunk := max((len(quartets)+1)/2, 1)
	parts := make([]*linalg.Mat, (len(quartets)+chunk-1)/chunk)
	linalg.Parallel(len(quartets), chunk, linalg.Procs(), func(lo, hi int) {
		loc := linalg.NewMat(n, n)
		var ws eriScratch
		for _, q := range quartets[lo:hi] {
			sa, sb, sc, sd := &bs.Shells[q.a], &bs.Shells[q.b], &bs.Shells[q.c], &bs.Shells[q.d]
			blk := ws.fourCenterBlock(sa, sb, sc, sd, nil, 0, nil)
			na, nb, nc, nd := sa.NCart(), sb.NCart(), sc.NCart(), sd.NCart()
			for i := 0; i < na; i++ {
				mu := sa.Start + i
				for j := 0; j < nb; j++ {
					nu := sb.Start + j
					for k := 0; k < nc; k++ {
						la := sc.Start + k
						for l := 0; l < nd; l++ {
							si := sd.Start + l
							v := blk[((i*nb+j)*nc+k)*nd+l]
							// Coulomb: J_μν += D_λσ (μν|λσ)
							loc.Add(mu, nu, dmat.At(la, si)*v)
							// Exchange: K_μλ += D_νσ (μν|λσ); G −= ½K
							loc.Add(mu, la, -0.5*dmat.At(nu, si)*v)
						}
					}
				}
			}
		}
		parts[lo/chunk] = loc
	})
	g := linalg.NewMat(n, n)
	for _, p := range parts {
		g.AxpyMat(1, p)
	}
	return g
}

// FourCenterDerivHF accumulates the conventional closed-shell HF
// two-electron gradient
//
//	factor·Σ ∂(μν|λσ)/∂R · [½ D_μν D_λσ − ¼ D_μλ D_νσ]
//
// into grad, recomputing derivative integrals on the fly. Every ordered
// quartet is visited once with only the slot-1 derivative evaluated; the
// four-slot sum is recovered with the permuted weight
// W = 2·D_μν·D_λσ − ½·(D_μλ·D_νσ + D_νλ·D_μσ) (see package comment).
func FourCenterDerivHF(bs *basis.Set, dmat *linalg.Mat, sw *linalg.Mat, thresh, factor float64, grad []float64) {
	nsh := len(bs.Shells)
	dmax := dmat.MaxAbs()
	w4 := func(mu, nu, la, si int) float64 {
		return 2*dmat.At(mu, nu)*dmat.At(la, si) -
			0.5*(dmat.At(mu, la)*dmat.At(nu, si)+dmat.At(nu, la)*dmat.At(mu, si))
	}
	var quartets [][4]int
	for i := 0; i < nsh; i++ {
		for j := 0; j < nsh; j++ {
			qij := sw.At(i, j)
			for k := 0; k < nsh; k++ {
				for l := 0; l < nsh; l++ {
					if qij*sw.At(k, l)*dmax*dmax < thresh {
						continue
					}
					quartets = append(quartets, [4]int{i, j, k, l})
				}
			}
		}
	}
	reduceGrads(len(quartets), grad, func(lo, hi int, buf []float64) {
		var ws eriScratch
		for qi := lo; qi < hi; qi++ {
			q := quartets[qi]
			ws.fourCenterBlock(&bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]],
				w4, factor, buf)
		}
	})
}
