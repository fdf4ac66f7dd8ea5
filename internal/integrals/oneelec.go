package integrals

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// chunkSize is the length of the contiguous chunks parallelFor cuts
// [0, n) into: at most linalg.Procs() of them, 0 when n is 0.
func chunkSize(n int) int {
	nw := max(min(linalg.Procs(), n), 1)
	return (n + nw - 1) / nw
}

// parallelFor runs fn on the chunkSize(n)-long pieces of [0, n) through
// linalg.Parallel.
func parallelFor(n int, fn func(lo, hi int)) { linalg.Parallel(n, chunkSize(n), linalg.Procs(), fn) }

// reduceGrads runs fn on per-chunk gradient buffers and sums them into
// grad. n is the loop bound passed through to parallelFor.
func reduceGrads(n int, grad []float64, fn func(lo, hi int, buf []float64)) {
	reduceGrads2(n, grad, nil, func(lo, hi int, buf, _ []float64) { fn(lo, hi, buf) })
}

// reduceGrads2 is reduceGrads over two accumulators (the bra-atom and
// field-site gradients of the point-charge derivatives); gb may be nil.
// Each chunk fills its own zeroed buffers, and the buffers are folded
// into ga and gb in chunk order after the join, so the summation order —
// and with it every bit of the result — is a function of the inputs and
// GOMAXPROCS only, never of goroutine scheduling.
func reduceGrads2(n int, ga, gb []float64, fn func(lo, hi int, bufA, bufB []float64)) {
	na, nb := len(ga), len(gb)
	chunk := chunkSize(n)
	if chunk == 0 {
		return
	}
	bufs := make([]float64, (n+chunk-1)/chunk*(na+nb))
	linalg.Parallel(n, chunk, linalg.Procs(), func(lo, hi int) {
		buf := bufs[lo/chunk*(na+nb):][:na+nb]
		fn(lo, hi, buf[:na], buf[na:])
	})
	for len(bufs) > 0 {
		for i, v := range bufs[:na] {
			ga[i] += v
		}
		for i, v := range bufs[na : na+nb] {
			gb[i] += v
		}
		bufs = bufs[na+nb:]
	}
}

// upperPairs enumerates (i, j) with i ≤ j < n.
func upperPairs(n int) [][2]int {
	out := make([][2]int, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// allPairs enumerates all ordered (i, j) with i, j < n.
func allPairs(n int) [][2]int {
	out := make([][2]int, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// stKind selects which one-electron operator stBlock evaluates.
type stKind int

const (
	kindOverlap stKind = iota
	kindKinetic
)

// stPair evaluates the overlap or kinetic block between two shells and,
// when deriv is true, the three bra-center derivative blocks
// ∂/∂A_d obtained from the raise/lower relation
// ∂/∂A x^i = 2a·x^{i+1} − i·x^{i-1} applied per primitive.
func stPair(sa, sb *basis.Shell, kind stKind, deriv bool) (val *linalg.Mat, dA [3]*linalg.Mat) {
	compA := basis.CartComponents(sa.L)
	compB := basis.CartComponents(sb.L)
	na, nb := len(compA), len(compB)
	val = linalg.NewMat(na, nb)
	if deriv {
		for d := 0; d < 3; d++ {
			dA[d] = linalg.NewMat(na, nb)
		}
	}
	imax := sa.L
	if deriv {
		imax++
	}
	jmax := sb.L
	if kind == kindKinetic {
		jmax += 2
	}
	var ab [3]float64
	for d := 0; d < 3; d++ {
		ab[d] = sa.Center[d] - sb.Center[d]
	}
	var e [3]eTable
	for p, a := range sa.Exps {
		for q, b := range sb.Exps {
			pexp := a + b
			pre := math.Pow(math.Pi/pexp, 1.5)
			for d := 0; d < 3; d++ {
				e[d].fill(imax, jmax, a, b, ab[d])
			}
			// 1D overlap factor (without the √(π/p) prefactor, folded
			// into pre as (π/p)^{3/2} for the 3D product).
			s1 := func(d, i, j int) float64 {
				if i < 0 || j < 0 {
					return 0
				}
				return e[d].at(i, j)[0]
			}
			// 1D kinetic factor ⟨i| −½ d²/dx² |j⟩.
			k1 := func(d, i, j int) float64 {
				if i < 0 {
					return 0
				}
				v := -2*b*b*s1(d, i, j+2) + b*float64(2*j+1)*s1(d, i, j)
				if j >= 2 {
					v -= 0.5 * float64(j*(j-1)) * s1(d, i, j-2)
				}
				return v
			}
			// 3D assembly for bra Cartesian powers ia against the ket
			// powers jb fixed in the closure below.
			for ca, A := range compA {
				for cb, B := range compB {
					coef := sa.Coefs[ca][p] * sb.Coefs[cb][q] * pre
					jb := B
					value := func(ia [3]int) float64 {
						if kind == kindOverlap {
							return s1(0, ia[0], jb[0]) * s1(1, ia[1], jb[1]) * s1(2, ia[2], jb[2])
						}
						return k1(0, ia[0], jb[0])*s1(1, ia[1], jb[1])*s1(2, ia[2], jb[2]) +
							s1(0, ia[0], jb[0])*k1(1, ia[1], jb[1])*s1(2, ia[2], jb[2]) +
							s1(0, ia[0], jb[0])*s1(1, ia[1], jb[1])*k1(2, ia[2], jb[2])
					}
					val.Add(ca, cb, coef*value(A))
					if deriv {
						for d := 0; d < 3; d++ {
							up, down := A, A
							up[d]++
							down[d]--
							dv := 2 * a * value(up)
							if A[d] > 0 {
								dv -= float64(A[d]) * value(down)
							}
							dA[d].Add(ca, cb, coef*dv)
						}
					}
				}
			}
		}
	}
	return val, dA
}

// Overlap returns the overlap matrix S.
func Overlap(bs *basis.Set) *linalg.Mat { return oneElectronMat(bs, kindOverlap) }

// Kinetic returns the kinetic-energy matrix T.
func Kinetic(bs *basis.Set) *linalg.Mat { return oneElectronMat(bs, kindKinetic) }

func oneElectronMat(bs *basis.Set, kind stKind) *linalg.Mat {
	m := linalg.NewMat(bs.N, bs.N)
	pairs := upperPairs(len(bs.Shells))
	parallelFor(len(pairs), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			blk, _ := stPair(sa, sb, kind, false)
			for i := 0; i < blk.Rows; i++ {
				for j := 0; j < blk.Cols; j++ {
					v := blk.At(i, j)
					m.Set(sa.Start+i, sb.Start+j, v)
					m.Set(sb.Start+j, sa.Start+i, v)
				}
			}
		}
	})
	return m
}

// coulombPair evaluates the charge-attraction block Σ_c −q_c·(μ|1/r_c|ν)
// for one shell pair over an arbitrary set of attraction sites (flat 3M
// positions pos, charges q — the geometry's nuclei or an external
// point-charge field), accumulating it into val[ca·nb + cb] when val is
// non-nil. When braGrad is non-nil it instead contracts the derivative
// integrals with the weights w on the fly:
//
//	braGrad[3·atom(A)+d] += factor·Σ_μν w_μν ∂V_μν/∂A_d    (bra share)
//	siteGrad[3·c+d]      −= factor·Σ_μν w_μν ∂(V_c)_μν/∂A_d (operator share)
//
// Two ordered visits of each pair make −(∂A+∂B) the complete
// (Hellmann–Feynman + Pulay) force via translational invariance. For
// the nuclear-attraction case braGrad and siteGrad are the same slice;
// for an external field the site forces land in the field's own array.
// Per primitive pair and site the R cube is one member of a run
// (rRun.fill at K = 1), and every integral — raised and lowered ones
// included — is one hermiteAxpy column of it (coulombAt).
func (sc *eriScratch) coulombPair(sa, sb *basis.Shell, sitePos, siteQ, val []float64, w *linalg.Mat, factor float64, braGrad, siteGrad []float64) {
	compA, compB := cart(sa.L), cart(sb.L)
	deriv := braGrad != nil
	imax := sa.L
	if deriv {
		imax++
	}
	jmax := sb.L
	tmax := imax + jmax
	var ab [3]float64
	for d := 0; d < 3; d++ {
		ab[d] = sa.Center[d] - sb.Center[d]
	}
	e := &sc.e
	for p, a := range sa.Exps {
		for q, b := range sb.Exps {
			pexp := a + b
			pre := 2 * math.Pi / pexp
			for d := 0; d < 3; d++ {
				e[d].fill(imax, jmax, a, b, ab[d])
			}
			var pc [3]float64
			for d := 0; d < 3; d++ {
				pc[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
			}
			alpha := [1]float64{pexp}
			for ci := range siteQ {
				sc.run.r.fill(tmax, alpha[:], nil, pc[0]-sitePos[3*ci], pc[1]-sitePos[3*ci+1], pc[2]-sitePos[3*ci+2])
				charge := -siteQ[ci]
				for ca, A := range compA {
					for cb, B := range compB {
						coef := sa.Coefs[ca][p] * sb.Coefs[cb][q] * pre * charge
						if val != nil {
							val[ca*len(compB)+cb] += coef * sc.coulombAt(A, B)
						}
						if deriv {
							// Ordered-visit left-derivative scheme: the
							// effective weight is w_μν + w_νμ (see stDeriv).
							wv := (w.At(sa.Start+ca, sb.Start+cb) + w.At(sb.Start+cb, sa.Start+ca)) * factor * coef
							if wv == 0 {
								continue
							}
							for d := 0; d < 3; d++ {
								up, down := A, A
								up[d]++
								down[d]--
								dv := 2 * a * sc.coulombAt(up, B)
								if A[d] > 0 {
									dv -= float64(A[d]) * sc.coulombAt(down, B)
								}
								braGrad[3*sa.Atom+d] += wv * dv
								siteGrad[3*ci+d] -= wv * dv
							}
						}
					}
				}
			}
		}
	}
}

// coulombAt returns the Hermite integral of the bra Cartesian powers ia
// and ket powers jb of the pair tables sc.e against the R cube of
// sc.run.
func (sc *eriScratch) coulombAt(ia, jb [3]int) float64 {
	e, r := &sc.e, &sc.run.r
	return sc.hermiteAxpy(r.val, e[0].at(ia[0], jb[0]), e[1].at(ia[1], jb[1]), e[2].at(ia[2], jb[2]), r.n, 1)[0]
}

// nuclearSites is a geometry's nuclei as attraction sites: a charge Z on
// every nucleus.
func nuclearSites(g *molecule.Geometry) *PointCharges {
	pc := &PointCharges{Pos: make([]float64, 3*g.N()), Q: make([]float64, g.N())}
	for i, at := range g.Atoms {
		for d := 0; d < 3; d++ {
			pc.Pos[3*i+d] = at.Pos[d]
		}
		pc.Q[i] = float64(at.Z)
	}
	return pc
}

// Nuclear returns the nuclear-attraction matrix V = Σ_C −Z_C (μ|1/r_C|ν),
// the electron–field attraction of the nuclei as point charges.
func Nuclear(bs *basis.Set, g *molecule.Geometry) *linalg.Mat {
	return PointChargeMatrix(bs, nuclearSites(g))
}

// Hcore returns the one-electron core Hamiltonian T + V.
func Hcore(bs *basis.Set, g *molecule.Geometry) *linalg.Mat {
	h := Kinetic(bs)
	h.AxpyMat(1, Nuclear(bs, g))
	return h
}

// OverlapDeriv accumulates factor·Σ_μν w_μν ∂S_μν/∂R into grad
// (length 3·natoms). w may be non-symmetric; both orientations are
// contracted.
func OverlapDeriv(bs *basis.Set, w *linalg.Mat, factor float64, grad []float64) {
	stDeriv(bs, w, factor, grad, kindOverlap)
}

// KineticDeriv accumulates factor·Σ_μν w_μν ∂T_μν/∂R into grad.
func KineticDeriv(bs *basis.Set, w *linalg.Mat, factor float64, grad []float64) {
	stDeriv(bs, w, factor, grad, kindKinetic)
}

// stDeriv visits all ordered shell pairs computing only the bra-center
// derivative blocks. For a symmetric two-center integral the ket-slot
// contribution Σ w_μν ∂I/∂(center ν) relabels to Σ w_νμ ∂I/∂(center μ),
// so contracting each visit with the weight (w_μν + w_νμ) and
// accumulating on the bra atom yields the complete gradient.
func stDeriv(bs *basis.Set, w *linalg.Mat, factor float64, grad []float64, kind stKind) {
	pairs := allPairs(len(bs.Shells))
	reduceGrads(len(pairs), grad, func(lo, hi int, buf []float64) {
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			_, dA := stPair(sa, sb, kind, true)
			for d := 0; d < 3; d++ {
				var s float64
				for i := 0; i < dA[d].Rows; i++ {
					for j := 0; j < dA[d].Cols; j++ {
						s += (w.At(sa.Start+i, sb.Start+j) + w.At(sb.Start+j, sa.Start+i)) * dA[d].At(i, j)
					}
				}
				buf[3*sa.Atom+d] += factor * s
			}
		}
	})
}

// NuclearDeriv accumulates factor·Σ_μν w_μν ∂V_μν/∂R into grad,
// including the forces on the nuclei acting as attraction centers.
func NuclearDeriv(bs *basis.Set, g *molecule.Geometry, w *linalg.Mat, factor float64, grad []float64) {
	coulombDeriv(bs, nuclearSites(g), w, factor, grad, nil)
}

// coulombDeriv runs coulombPair's derivative over every ordered shell
// pair, the bra share into grad and the site share into siteGrad — or,
// with siteGrad nil, both into grad, through one per-chunk buffer in
// visit order.
func coulombDeriv(bs *basis.Set, pc *PointCharges, w *linalg.Mat, factor float64, grad, siteGrad []float64) {
	pairs := allPairs(len(bs.Shells))
	reduceGrads2(len(pairs), grad, siteGrad, func(lo, hi int, bufA, bufS []float64) {
		if siteGrad == nil {
			bufS = bufA
		}
		var sc eriScratch
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			sc.coulombPair(sa, sb, pc.Pos, pc.Q, nil, w, factor, bufA, bufS)
		}
	})
}
