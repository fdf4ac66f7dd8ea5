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

	if r.B != nil {
		z := linalg.NewTensor3(r.Aux.N, r.Bs.N, r.Bs.N)
		zeta := linalg.NewMat(r.Aux.N, r.Aux.N)
		r.AddRISeparableCoeffs(r.D, r.D, 0.5, z, zeta)
		integrals.ThreeCenterDeriv(r.Bs, r.Aux, z, 1, grad)
		integrals.TwoCenterDeriv(r.Aux, zeta, 1, grad)
	} else {
		integrals.FourCenterDerivHF(r.Bs, r.D, r.Schwarz, r.opts.SchwarzThresh, 1, grad)
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

// CTilde returns the tensor C̃_P = Σ_Q J^{-1}_PQ (Q|μν) = (Wᵀ·B)_P (lazily
// built and cached; geometry is immutable per Result).
func (r *Result) CTilde() *linalg.Tensor3 {
	if r.ctilde == nil {
		r.ctilde = linalg.NewTensor3(r.Aux.N, r.Bs.N, r.Bs.N)
		linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, r.JFactor, r.B.Flatten(), 0, r.ctilde.Flatten())
	}
	return r.ctilde
}

// AddRISeparableCoeffs accumulates into (zAcc, zetaAcc) the derivative
// coefficients of the RI-factorised separable two-electron energy
//
//	E_sep(Da, Db) = factor · Σ_μνλσ Da_μν Db_λσ [(μν|λσ) − ½(μλ|νσ)]_RI
//
// such that dE_sep = Σ zAcc_Pμν (P|μν)^ξ + Σ zetaAcc_PQ (P|Q)^ξ.
// Both densities must be symmetric. The derivative integrals are
// symmetric in μν and in PQ, so only the symmetric parts of the
// coefficients matter and the exchange terms are accumulated
// unsymmetrised. The HF energy uses (D, D) with factor/2; the MP2
// orbital-response coupling uses (P^relaxed, D_HF).
func (r *Result) AddRISeparableCoeffs(da, db *linalg.Mat, factor float64, zAcc *linalg.Tensor3, zetaAcc *linalg.Mat) {
	nbf := r.Bs.N
	naux := r.Aux.N
	ct := r.CTilde()
	ws := r.ws

	// w^x = J^{-1} u^x = Wᵀ·(W·u^x) with u^x_P = Σ_μν V_Pμν Dx_μν.
	coulomb := func(d, w *linalg.Mat) {
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.V3.Flatten(), d.Vec(), 0, w)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.JFactor, w, 0, ws.wt)
		linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, r.JFactor, ws.wt, 0, w)
	}
	coulomb(da, ws.wa)
	coulomb(db, ws.wb)
	wa, wb := ws.wa.Data, ws.wb.Data

	// Exchange intermediates for every P in two flattened products:
	// C̃_P·Db, block-transposed to Db·C̃_P (both factors are symmetric),
	// times Da gives Y_Pᵀ = (Da·C̃_P·Db)ᵀ.
	y, yT := r.Scratch3(nbf, nbf)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, ct.FlattenRows(), db, 0, y.FlattenRows())
	y.TransposeBlocksInto(yT)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, yT.FlattenRows(), da, 0, y.FlattenRows())

	// zAcc_P += factor·(w^b_P·Da + w^a_P·Db − Y_Pᵀ): Coulomb plus the
	// exchange coefficient −factor·(Da C̃_P Db)_μν.
	for p := 0; p < naux; p++ {
		wap, wbp := wa[p]*factor, wb[p]*factor
		off := p * nbf * nbf
		zp := zAcc.Data[off : off+nbf*nbf]
		for i, yv := range y.Data[off : off+nbf*nbf] {
			zp[i] += wbp*da.Data[i] + wap*db.Data[i] - factor*yv
		}
	}

	// ζ: −½(w^a w^bᵀ + w^b w^aᵀ) + ½ G, G_PQ = tr(Da C̃_P Db C̃_Q).
	linalg.Gemm(linalg.NoTrans, linalg.Trans, 0.5*factor, y.Flatten(), ct.Flatten(), 1, zetaAcc)
	for p := 0; p < naux; p++ {
		zrow := zetaAcc.Row(p)
		for q := range zrow {
			zrow[q] -= 0.5 * factor * (wa[p]*wb[q] + wb[p]*wa[q])
		}
	}
}
