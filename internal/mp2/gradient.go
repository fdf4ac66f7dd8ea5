package mp2

import (
	"errors"
	"math"

	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
)

// Gradient returns the analytic nuclear gradient of the total
// RI-HF + RI-MP2 energy (flat [3N], Hartree/Bohr).
//
// The implementation follows the Lagrangian formulation the paper's
// appendix is based on (Weigend–Häser extended to an RI-HF reference),
// re-derived here in the occupation-2 convention. With
// t_ijab = (ia|jb)/Δ_ijab, T̃ = 2t − t(a↔b) and B the RI factor
// (one metric factor W absorbed, WᵀW = J⁺; the paper's J^{-1/2}):
//
//	γ^P_ia   = Σ_jb T̃_ijab B^P_jb                       (amplitude 3-index density)
//	P_ij     = −2 Σ_kab T̃_ikab t_jkab                   (unrelaxed occ block)
//	P_ab     = +2 Σ_ijc T̃_ijac t_ijbc                   (unrelaxed vir block)
//	Λ_pi     = 4 Σ_Pa B^P_pa γ^P_ia                     (occ-column Lagrangian)
//	Λ_pa     = 4 Σ_Pi B^P_pi γ^P_ia                     (vir-column Lagrangian)
//	Θ_ai     = Λ_ai − Λ_ia + 4 (CᵀG[P̄]C)_ai            (Z-vector RHS)
//	A z = Θ with A_{ai,bj} = (εa−εi)δ + 4(ai|bj) − (ab|ij) − (aj|ib)
//
// The total derivative then assembles exactly four AO contraction
// classes (paper Eq. 10): h^ξ with D_HF + P̄ + Pz; S^ξ with the total
// energy-weighted W; (P|μν)^ξ with Z^P (separable + 4·Wᵀγ); and
// (P|Q)^ξ with ζ. No four-center derivatives appear anywhere.
//
// Every piece above is finite-difference validated in the test suite.
func (r *Result) Gradient() ([]float64, error) {
	grad, _, err := r.Gradients()
	return grad, err
}

// Gradients returns the analytic nuclear gradient plus, when the
// reference SCF was embedded in a point-charge field, the gradient on
// the field sites (nil in vacuum). The embedding enters the MP2
// derivative exactly like any one-electron operator: contracted with
// the relaxed density D_HF + P̄ + Pz, holding the charge values fixed.
func (r *Result) Gradients() (grad, siteGrad []float64, err error) {
	ref := r.SCF
	if ref.DF == nil {
		return nil, nil, errors.New("mp2: gradient requires RI intermediates")
	}
	nbf := ref.Bs.N
	nocc := ref.NOcc
	nvir := ref.NVirt()
	eps := ref.Eps
	ws := r.buildMOBlocks()

	r.amplitudes()
	r.lagrangian()
	poo, pvv, lamOcc, lamVir := ws.poo, ws.pvv, ws.lamOcc, ws.lamVir

	// ---- AO response densities and the G operator ------------------------
	co := ref.COcc()
	cv := ref.CVirt()
	pbar := sandwich(co, poo, co)
	pbar.AxpyMat(1, sandwich(cv, pvv, cv))
	gao := linalg.NewMat(nbf, nbf)
	ref.GOperator(pbar, gao)
	gpbarMO := r.toMO(gao)

	// ---- Z-vector ---------------------------------------------------------
	theta := ws.theta
	for a := 0; a < nvir; a++ {
		for i := 0; i < nocc; i++ {
			theta.Set(a, i, lamOcc.At(nocc+a, i)-lamVir.At(i, a)+4*gpbarMO.At(nocc+a, i))
		}
	}
	z, err := r.solveZVector(theta)
	if err != nil {
		return nil, nil, err
	}
	dz := symOV(cv, z, co) // Cv z Coᵀ + Co zᵀ Cvᵀ

	// ---- total one-particle densities -------------------------------------
	ptot := pbar // P̄ + Pz, Pz = −½ Dz
	ptot.AxpyMat(-0.5, dz)
	dh := ref.D.Clone() // HF density
	dh.AxpyMat(1, ptot)

	// ---- energy-weighted density W (MO, then AO) --------------------------
	wmo := ws.wmo
	wmo.Zero()
	for i := 0; i < nocc; i++ {
		// HF part: W_ij += 2 εi δij (occupation-2 convention).
		wmo.Add(i, i, 2*eps[i])
		for j := 0; j < nocc; j++ {
			wmo.Add(i, j, 0.5*(eps[i]+eps[j])*poo.At(i, j)+0.5*lamOcc.At(i, j))
		}
	}
	for a := 0; a < nvir; a++ {
		for b := 0; b < nvir; b++ {
			wmo.Add(nocc+a, nocc+b, 0.5*(eps[nocc+a]+eps[nocc+b])*pvv.At(a, b)+0.5*lamVir.At(nocc+a, b))
		}
	}
	for i := 0; i < nocc; i++ {
		for a := 0; a < nvir; a++ {
			wmo.Add(i, nocc+a, lamVir.At(i, a)) // −S^(ξ)_ia Λ_ia elimination term
			wmo.Add(nocc+a, i, -eps[i]*z.At(a, i))
		}
	}
	// Fock-response couplings to occupied-occupied overlap derivatives.
	ref.GOperator(dz, gao)
	gdzMO := r.toMO(gao)
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			wmo.Add(i, j, 2*gpbarMO.At(i, j)-gdzMO.At(i, j))
		}
	}
	// MO → AO back-transform: W^AO = C·W^MO·Cᵀ.
	wao := sandwich(ref.C, wmo, ref.C)

	// ---- skeleton contractions --------------------------------------------
	// The one-electron derivatives and the RI derivative chain share no
	// data, so they run as the two pieces of one linalg.Parallel call: the
	// first sums into grad (and the field sites' gradient), the second —
	// which holds every scf.DF call — into its own ri, folded into grad
	// after the join.
	grad = make([]float64, 3*ref.Geom.N())
	ri := make([]float64, len(grad))
	linalg.Parallel(2, 1, linalg.Procs(), func(piece, _ int) {
		if piece == 0 {
			r.oneElectronGrad(dh, wao, grad)
			return
		}
		r.riGrad(dh, co, cv, ri)
	})
	for i, v := range ri {
		grad[i] += v
	}
	return grad, r.embedGrad, nil
}

// oneElectronGrad sets grad to the nuclear-repulsion gradient plus the
// kinetic, nuclear-attraction and overlap derivatives contracted with the
// relaxed density dh and the energy-weighted density wao; in a point
// charge field it also sets the field sites' gradient, r.embedGrad.
func (r *Result) oneElectronGrad(dh, wao *linalg.Mat, grad []float64) {
	ref := r.SCF
	copy(grad, ref.Geom.NuclearRepulsionGradient())
	integrals.KineticDeriv(ref.Bs, dh, 1, grad)
	integrals.NuclearDeriv(ref.Bs, ref.Geom, dh, 1, grad)
	if pc := ref.Opts().EmbedCharges; pc.N() > 0 {
		r.embedGrad = make([]float64, 3*pc.N())
		integrals.PointChargeDeriv(ref.Bs, pc, dh, 1, grad, r.embedGrad)
		integrals.NuclearFieldDeriv(ref.Geom, pc, 1, grad, r.embedGrad)
	}
	integrals.OverlapDeriv(ref.Bs, wao, -1, grad)
}

// riGrad adds into grad the three- and two-center derivative integrals
// contracted with the separable and amplitude coefficients Z^P and ζ.
func (r *Result) riGrad(dh, co, cv *linalg.Mat, grad []float64) {
	ref, ws := r.SCF, r.ws
	nocc, nvir, naux := ref.NOcc, ref.NVirt(), ref.Aux.N

	// The separable coefficients are linear in their density, so the HF
	// two-electron term (D, ½) and the orbital-response coupling
	// (P̄ + Pz, 1) fold into one call.
	dsep := dh.Clone()
	dsep.AxpyMat(-0.5, ref.D)
	zAcc, zetaAcc := linalg.NewTensor3(naux, ref.Bs.N, ref.Bs.N), linalg.NewMat(naux, naux)
	ref.AddRISeparableCoeffs(dsep, 1.0, zAcc, zetaAcc)

	// Amplitude skeleton: Z^{amp} = 4 (Wᵀγ)^AO and
	// ζ^{amp} = −2 Σ_ia (WᵀB)_Pia (Wᵀγ)_Qia: γ is a derivative with
	// respect to B = W·V, so both take the transposed factor.
	for i := 0; i < nocc; i++ {
		gi := ws.gamma.Slice(i)
		for p := 0; p < naux; p++ {
			for a, v := range gi.Row(p) {
				ws.gamAux.Data[(p*nvir+a)*nocc+i] = v
			}
		}
	}
	ref.ApplyWT(ws.gamAux, ws.gamT)
	ref.ApplyWT(ws.bpvo, ws.bT)
	r.ampBackTransform(co, cv, zAcc)
	// TwoCenterDeriv contracts ζ_PQ + ζ_QP, so −2·(bT·gamTᵀ) stands for
	// the symmetric −(bT·gamTᵀ + gamT·bTᵀ).
	linalg.Gemm(linalg.NoTrans, linalg.Trans, -2, ws.bT.Flatten(), ws.gamT.Flatten(), 1, zetaAcc)

	integrals.ThreeCenterDeriv(ref.Bs, ref.Aux, zAcc, 1, grad)
	integrals.TwoCenterDeriv(ref.Aux, zetaAcc, 1, grad)
}

// buildMOBlocks forms the full-MO B^P_pq = (Cᵀ B_P C) for every P with two
// flattened GEMMs per auxiliary block (scf.DF.EachBlock) and scatters the
// block into the workspace's orbital-class blocks. The blockwise transpose
// between the GEMMs exploits B_P = B_Pᵀ: with T_P = B_P·C,
// (T_Pᵀ·C)(q,p) = (Cᵀ B_P C)(p,q), and Cᵀ B_P C is symmetric, so the
// second flat product lands the MO blocks directly. Only the gradient
// needs them, so they (and the workspace) are built on its first call.
func (r *Result) buildMOBlocks() *workspace {
	if r.ws != nil {
		return r.ws
	}
	ref := r.SCF
	nbf := ref.Bs.N
	naux := ref.Aux.N
	nocc := ref.NOcc
	nvir := ref.NVirt()
	ws := newWorkspace(nbf, naux, nocc, nvir, ref.NumBlocks())

	ref.EachBlock(func(_, lo, hi int) {
		ta, tb := ref.HalfBlock(ref.C, lo, hi)
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, tb.FlattenRows(), ref.C, 0, ta.FlattenRows())
		for p := lo; p < hi; p++ {
			for q := 0; q < nbf; q++ {
				row := ta.Data[((p-lo)*nbf+q)*nbf:][:nbf]
				if q < nocc {
					copy(ws.boo.Data[(q*naux+p)*nocc:], row[:nocc])
					copy(ws.bov.Data[(q*naux+p)*nvir:], row[nocc:])
					continue
				}
				b := q - nocc
				copy(ws.bvv.Data[(b*naux+p)*nvir:], row[nocc:])
				copy(ws.bpvo.Data[(p*nvir+b)*nocc:], row[:nocc])
			}
		}
	})
	r.ws = ws
	return ws
}

// amplitudes fills the workspace with t_ij = (ia|jb)/Δ_ijab and
// T̃_ij = 2t_ij − t_ijᵀ for every ordered pair (t_ji = t_ijᵀ), the
// three-index amplitude density γ and the unrelaxed blocks P_oo, P_vv.
// Two linalg.Parallel calls cut the work by occupied orbital: piece i of
// the first forms the pairs (i, j ≥ i) and writes blocks ij and ji; piece
// i of the second forms γ_i, and P_vv and P_oo are one more piece each.
// Every piece owns its outputs, and its GEMMs are the per-pair ones of a
// single loop, so the bits do not depend on which goroutine ran it.
func (r *Result) amplitudes() {
	ws := r.ws
	nocc := r.SCF.NOcc
	nvir := r.SCF.NVirt()
	eps := r.SCF.Eps

	linalg.Parallel(nocc, 1, linalg.Procs(), func(i, _ int) {
		bi, vij := ws.bov.Slice(i), ws.vij.Slice(i)
		for j := i; j < nocc; j++ {
			linalg.GemmInline(linalg.Trans, linalg.NoTrans, 1, bi, ws.bov.Slice(j), 0, vij)
			tij, tji := ws.t.Slice(i*nocc+j), ws.t.Slice(j*nocc+i)
			for a := 0; a < nvir; a++ {
				ea := eps[i] + eps[j] - eps[nocc+a]
				for b := 0; b < nvir; b++ {
					tij.Set(a, b, vij.At(a, b)/(ea-eps[nocc+b]))
				}
			}
			ttij, ttji := ws.tt.Slice(i*nocc+j), ws.tt.Slice(j*nocc+i)
			for a := 0; a < nvir; a++ {
				for b := 0; b < nvir; b++ {
					ttij.Set(a, b, 2*tij.At(a, b)-tij.At(b, a))
				}
			}
			if i != j {
				for a := 0; a < nvir; a++ {
					for b := 0; b < nvir; b++ {
						tji.Set(b, a, tij.At(a, b))
						ttji.Set(b, a, ttij.At(a, b))
					}
				}
			}
		}
	})

	// P_ij = −2 Σ_kab T̃_ikab t_jkab: one product over the (k, a, b) rows.
	byOcc := func(x *linalg.Tensor3) *linalg.Mat {
		return &linalg.Mat{Rows: nocc, Cols: nocc * nvir * nvir, Data: x.Data}
	}
	linalg.Parallel(nocc+2, 1, linalg.Procs(), func(i, _ int) {
		switch i {
		case nocc:
			// P_ab += 2 Σ_c T̃_ij[a,c] t_ij[b,c].
			ws.pvv.Zero()
			for ij := range nocc * nocc {
				linalg.GemmInline(linalg.NoTrans, linalg.Trans, 2, ws.tt.Slice(ij), ws.t.Slice(ij), 1, ws.pvv)
			}
		case nocc + 1:
			linalg.GemmInline(linalg.NoTrans, linalg.Trans, -2, byOcc(ws.tt), byOcc(ws.t), 0, ws.poo)
		default:
			// γ_i = Σ_j B_j · T̃_ijᵀ.
			gi := ws.gamma.Slice(i)
			gi.Zero()
			for j := 0; j < nocc; j++ {
				linalg.GemmInline(linalg.NoTrans, linalg.Trans, 1, ws.bov.Slice(j), ws.tt.Slice(i*nocc+j), 1, gi)
			}
		}
	})
}

// lagrangian forms Λ_pi = 4 Σ_Pa B^P_pa γ^P_ia and Λ_pa = 4 Σ_Pi B^P_pi γ^P_ia,
// one GEMM over (P, a) respectively (i, P) per orbital-class row block;
// the four write disjoint blocks and run as the pieces of one fan-out.
func (r *Result) lagrangian() {
	ws := r.ws
	nocc := r.SCF.NOcc
	nbf := r.SCF.Bs.N
	g := ws.gamma
	linalg.Parallel(4, 1, linalg.Procs(), func(piece, _ int) {
		switch piece {
		case 0:
			linalg.GemmInline(linalg.NoTrans, linalg.Trans, 4, ws.bov.Flatten(), g.Flatten(), 0, ws.lamOcc.RowSpan(0, nocc))
		case 1:
			linalg.GemmInline(linalg.Trans, linalg.NoTrans, 4, ws.boo.FlattenRows(), g.FlattenRows(), 0, ws.lamVir.RowSpan(0, nocc))
		case 2:
			linalg.GemmInline(linalg.NoTrans, linalg.Trans, 4, ws.bvv.Flatten(), g.Flatten(), 0, ws.lamOcc.RowSpan(nocc, nbf))
		default:
			linalg.GemmInline(linalg.Trans, linalg.NoTrans, 4, ws.bov.FlattenRows(), g.FlattenRows(), 0, ws.lamVir.RowSpan(nocc, nbf))
		}
	})
}

// ampBackTransform accumulates the AO back-transform 4·C_o·Γ̃_P·C_vᵀ of
// the Wᵀ-transformed amplitude density (workspace gamT, arranged
// (P, a, i)) into z for every P, one auxiliary block at a time: the
// occupied index in one flattened product, a block transpose, the
// virtual index in a second.
func (r *Result) ampBackTransform(co, cv *linalg.Mat, z *linalg.Tensor3) {
	pvn, pnv := r.SCF.Scratch3(cv.Cols, cv.Rows)
	r.SCF.EachBlock(func(_, lo, hi int) {
		pvnb, pnvb := pvn.Span(lo, hi), pnv.Span(lo, hi)
		linalg.GemmInline(linalg.NoTrans, linalg.Trans, 1, r.ws.gamT.Span(lo, hi).FlattenRows(), co, 0, pvnb.FlattenRows())
		pvnb.TransposeBlocksInto(pnvb)
		linalg.GemmInline(linalg.NoTrans, linalg.Trans, 4, pnvb.FlattenRows(), cv, 1, z.Span(lo, hi).FlattenRows())
	})
}

// toMO transforms an AO matrix to the MO basis: CᵀXC.
func (r *Result) toMO(x *linalg.Mat) *linalg.Mat {
	return sandwichFull(r.SCF.C, x)
}

// sandwich computes A·M·Bᵀ.
func sandwich(a, m, b *linalg.Mat) *linalg.Mat {
	t := linalg.NewMat(a.Rows, m.Cols)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, m, 0, t)
	out := linalg.NewMat(a.Rows, b.Rows)
	linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, t, b, 0, out)
	return out
}

// sandwichFull computes CᵀXC.
func sandwichFull(c, x *linalg.Mat) *linalg.Mat {
	t := linalg.NewMat(c.Cols, x.Cols)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, c, x, 0, t)
	out := linalg.NewMat(c.Cols, c.Cols)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, t, c, 0, out)
	return out
}

// symOV builds the symmetric AO density Cv·z·Coᵀ + Co·zᵀ·Cvᵀ.
func symOV(cv, z, co *linalg.Mat) *linalg.Mat {
	t := sandwich(cv, z, co)
	out := t.Clone()
	out.AxpyMat(1, t.T())
	return out
}

// hessVec applies the orbital Hessian of the Z-vector equation to z
// (nvir × nocc) directly in the MO basis,
//
//	(Az)_ai = (εa−εi) z_ai + Σ_bj [4(ai|bj) − (ab|ij) − (aj|ib)] z_bj,
//
// on the resident MO blocks of B. (ab|ij) z_bj = Σ_(b,P) B^P_ab Y_b,P,i
// with Y = z·B^oo, one packed product over j; then one linalg.Parallel
// call runs the rest as pieces that each write an nvir × nocc partial of
// their own, added in piece order. A piece per auxiliary block does the
// Coulomb part, two matrix–vector products with the block's rows of the
// (P, a, i) tensor, and (aj|ib) z_bj = Σ_P Σ_b X^P_ab B^P_bi with
// X^P = B^P_vo·zᵀ: one flattened product, a block transpose on the
// reference's scratch slabs, and one contraction over (P, b). The
// contraction of B^P_ab with Y over (b, P) is cut by its leading virtual
// b instead, one piece each.
func (r *Result) hessVec(z, out *linalg.Mat) {
	ws, ref := r.ws, r.SCF
	nocc := ref.NOcc
	nvir := z.Rows
	eps := ref.Eps

	nblk := ref.NumBlocks()
	npiece := nblk + nvir
	nvo := nvir * nocc
	x, xT := ref.Scratch3(nvir, nvir)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, z, ws.boo.Flatten(), 0, ws.hy.Flatten())
	linalg.Parallel(npiece, 1, linalg.Procs(), func(piece, _ int) {
		part := &linalg.Mat{Rows: nvir, Cols: nocc, Data: ws.hpart[piece*nvo : (piece+1)*nvo]}
		if piece >= nblk {
			b := piece - nblk
			linalg.GemmInline(linalg.Trans, linalg.NoTrans, -1, ws.bvv.Slice(b), ws.hy.Slice(b), 0, part)
			return
		}
		lo, hi := ref.Block(piece)
		bvo := ws.bpvo.Span(lo, hi)
		u := ws.u.RowSpan(lo, hi)
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 2, bvo.Flatten(), z.Vec(), 0, u)
		linalg.GemmInline(linalg.Trans, linalg.NoTrans, 2, bvo.Flatten(), u, 0, part.Vec())
		xb, xTb := x.Span(lo, hi), xT.Span(lo, hi)
		linalg.GemmInline(linalg.NoTrans, linalg.Trans, 1, bvo.FlattenRows(), z, 0, xb.FlattenRows())
		xb.TransposeBlocksInto(xTb)
		linalg.GemmInline(linalg.Trans, linalg.NoTrans, -1, xTb.FlattenRows(), bvo.FlattenRows(), 1, part)
	})
	out.Zero()
	for piece := range npiece {
		for k, v := range ws.hpart[piece*nvo : (piece+1)*nvo] {
			out.Data[k] += v
		}
	}
	for a := 0; a < nvir; a++ {
		zrow, orow := z.Row(a), out.Row(a)
		for i, zv := range zrow {
			orow[i] += (eps[nocc+a] - eps[i]) * zv
		}
	}
}

// solveZVector solves A z = Θ (both nvir × nocc) by conjugate gradients
// preconditioned with the diagonal orbital-energy differences εa−εi, the
// dominant part of the Hessian, and records the iteration count in
// ZVecIters. The returned matrix is workspace storage.
func (r *Result) solveZVector(theta *linalg.Mat) (*linalg.Mat, error) {
	ws := r.ws
	nocc := r.SCF.NOcc
	eps := r.SCF.Eps
	z, res, pre, dir, adir := ws.z, ws.res, ws.pre, ws.dir, ws.adir

	// precondition sets pre = res/Δ and returns ⟨res, pre⟩.
	precondition := func() float64 {
		for a := 0; a < res.Rows; a++ {
			rrow, prow := res.Row(a), pre.Row(a)
			for i, v := range rrow {
				prow[i] = v / (eps[nocc+a] - eps[i])
			}
		}
		return linalg.Dot(res, pre)
	}

	z.Zero()
	r.ZVecIters = 0
	norm0 := math.Sqrt(linalg.Dot(theta, theta))
	if norm0 == 0 {
		return z, nil
	}
	res.CopyFrom(theta)
	rz := precondition()
	dir.CopyFrom(pre)
	for iter := 0; iter < zvecMaxIter; iter++ {
		if math.Sqrt(linalg.Dot(res, res)) < zvecTol*math.Max(1, norm0) {
			r.ZVecIters = iter
			return z, nil
		}
		r.hessVec(dir, adir)
		alpha := rz / linalg.Dot(dir, adir)
		z.AxpyMat(alpha, dir)
		res.AxpyMat(-alpha, adir)
		rzNew := precondition()
		dir.Scale(rzNew / rz)
		dir.AxpyMat(1, pre)
		rz = rzNew
	}
	return nil, errors.New("mp2: Z-vector CG did not converge")
}
