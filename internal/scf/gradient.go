package scf

import (
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
)

// Gradient returns the analytic nuclear gradient ∂E_HF/∂R (flat [3N],
// Hartree/Bohr). On the RI path no four-center integral derivatives are
// evaluated anywhere — the two-electron contribution reduces to the
// Z^P_μν and ζ_PQ contractions of paper Eq. 10; on the conventional path
// the full (μν|λσ)^ξ derivatives are recomputed on the fly.
func (r *Result) Gradient() []float64 {
	grad, _ := r.Gradients()
	return grad
}

// Gradients returns the analytic nuclear gradient plus, when the SCF
// was embedded in a point-charge field (Options.EmbedCharges), the
// gradient on the field sites (flat [3M], Hartree/Bohr; nil in
// vacuum). The site forces hold the charge values fixed — the EE-MBE
// frozen-charge convention.
func (r *Result) Gradients() (grad, siteGrad []float64) {
	grad = r.Geom.NuclearRepulsionGradient()

	// One-electron terms: Σ D_μν h^ξ_μν.
	integrals.KineticDeriv(r.Bs, r.D, 1, grad)
	integrals.NuclearDeriv(r.Bs, r.Geom, r.D, 1, grad)
	if pc := r.opts.EmbedCharges; pc.N() > 0 {
		siteGrad = make([]float64, 3*pc.N())
		integrals.PointChargeDeriv(r.Bs, pc, r.D, 1, grad, siteGrad)
		integrals.NuclearFieldDeriv(r.Geom, pc, 1, grad, siteGrad)
	}

	// Pulay term: −Σ W_μν S^ξ_μν, W = 2 Σ_i ε_i C_i C_iᵀ.
	w := r.EnergyWeightedDensity()
	integrals.OverlapDeriv(r.Bs, w, -1, grad)

	if r.DF != nil {
		z := linalg.NewTensor3(r.Aux.N, r.Bs.N, r.Bs.N)
		zeta := linalg.NewMat(r.Aux.N, r.Aux.N)
		r.AddRISeparableCoeffs(r.D, 0.5, z, zeta)
		integrals.ThreeCenterDeriv(r.Bs, r.Aux, z, 1, grad)
		integrals.TwoCenterDeriv(r.Aux, zeta, 1, grad)
	} else {
		integrals.FourCenterDerivHF(r.Bs, r.D, r.Schwarz, schwarzThresh, 1, grad)
	}
	return grad, siteGrad
}

// MullikenCharges returns the per-atom Mulliken partial charges of the
// converged density, q_A = Z_A − Σ_{μ∈A} (D·S)_μμ — the charge model
// of the EE-MBE embedding field (phase 1).
func (r *Result) MullikenCharges() []float64 {
	ds := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, r.D, r.S)
	q := make([]float64, r.Geom.N())
	for i, at := range r.Geom.Atoms {
		q[i] = float64(at.Z)
	}
	fa := r.Bs.FuncAtom()
	for mu := 0; mu < r.Bs.N; mu++ {
		q[fa[mu]] -= ds.At(mu, mu)
	}
	return q
}

// EnergyWeightedDensity returns W_μν = 2 Σ_i^occ ε_i C_μi C_νi.
func (r *Result) EnergyWeightedDensity() *linalg.Mat {
	n := r.Bs.N
	w := linalg.NewMat(n, n)
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			var s float64
			for i := 0; i < r.NOcc; i++ {
				s += r.Eps[i] * r.C.At(mu, i) * r.C.At(nu, i)
			}
			w.Set(mu, nu, 2*s)
		}
	}
	return w
}

// AddRISeparableCoeffs accumulates into (zAcc, zetaAcc) the derivative
// coefficients of the RI-factorised separable two-electron energy
//
//	E_sep(Da) = factor · Σ_μνλσ Da_μν D_λσ [(μν|λσ) − ½(μλ|νσ)]_RI
//
// such that dE_sep = Σ zAcc_Pμν (P|μν)^ξ + Σ zetaAcc_PQ (P|Q)^ξ, with D
// the converged density. Da must be symmetric. The derivative integrals
// are symmetric in μν and in PQ, so only the symmetric parts of the
// coefficients matter and the exchange terms are accumulated
// unsymmetrised. The HF energy uses Da = D with factor/2; the MP2
// gradient folds its orbital-response coupling into the same call.
func (r *Result) AddRISeparableCoeffs(da *linalg.Mat, factor float64, zAcc *linalg.Tensor3, zetaAcc *linalg.Mat) {
	nbf, naux, nocc := r.Bs.N, r.Aux.N, r.NOcc
	co := r.COcc()
	df := r.DF

	// w^x = J^{-1} u^x with u^x_P = Σ_μν V_Pμν Dx_μν.
	df.Fit(da, df.wa)
	df.Fit(r.D, df.wb)
	wa, wb := df.wa.Data, df.wb.Data

	// Exchange through the occupied block, D = 2·C_o·C_oᵀ, with
	// C̃_P = (Wᵀ·B)_P never formed: X_P = B_P·C_o as in the Fock build,
	// H_P = C̃_P·C_o = (Wᵀ·X)_P, and M_P = Da·H_P by block-transposing H
	// (Da is symmetric), multiplying flat by Da and transposing back.
	// Wᵀ mixes every P; the stages before and after it run block by block.
	df.EachBlock(func(_, lo, hi int) { df.halfBlock(co, lo, hi) })
	x, xT := df.Scratch3(nbf, nocc)
	h := linalg.NewTensor3(naux, nbf, nocc)
	df.ApplyWT(x, h)
	mT, m := df.Scratch3(nocc, nbf)

	// Per block: zAcc_P += factor·(w^b_P·Da + w^a_P·D) − 2·factor·M_P·C_oᵀ,
	// Coulomb plus the exchange coefficient −factor·(Da C̃_P D)_μν.
	df.EachBlock(func(_, lo, hi int) {
		xTb, mTb, mb := xT.Span(lo, hi), mT.Span(lo, hi), m.Span(lo, hi)
		h.Span(lo, hi).TransposeBlocksInto(xTb)
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, xTb.FlattenRows(), da, 0, mTb.FlattenRows())
		mTb.TransposeBlocksInto(mb)
		for p := lo; p < hi; p++ {
			wap, wbp := wa[p]*factor, wb[p]*factor
			zp := zAcc.Data[p*nbf*nbf : (p+1)*nbf*nbf]
			for i := range zp {
				zp[i] += wbp*da.Data[i] + wap*r.D.Data[i]
			}
		}
		linalg.GemmInline(linalg.NoTrans, linalg.Trans, -2*factor, mb.FlattenRows(), co, 1, zAcc.Span(lo, hi).FlattenRows())
	})

	// ζ: −½(w^a w^bᵀ + w^b w^aᵀ) + ½ G, G_PQ = tr(Da C̃_P D C̃_Q) = 2·Σ M_P·H_Q.
	linalg.Gemm(linalg.NoTrans, linalg.Trans, factor, m.Flatten(), h.Flatten(), 1, zetaAcc)
	for p := 0; p < naux; p++ {
		zrow := zetaAcc.Row(p)
		for q := range zrow {
			zrow[q] -= 0.5 * factor * (wa[p]*wb[q] + wb[p]*wa[q])
		}
	}
}
