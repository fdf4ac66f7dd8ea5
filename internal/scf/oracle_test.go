package scf

import (
	"github.com/fragmd/fragmd/internal/linalg"
)

// The oracles below are the per-auxiliary-index loops the RI Fock build
// and the separable gradient coefficients ran before they were batched:
// 2·naux small GEMMs per call and fresh temporaries everywhere.

// oracleRIFock builds F = h + J − ½K with one half-transform GEMM and nbf
// row copies per auxiliary index.
func oracleRIFock(r *Result, d, co *linalg.Mat) *linalg.Mat {
	nbf, naux, nocc := r.Bs.N, r.Aux.N, co.Cols
	u := linalg.NewMat(naux, 1)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.B.Flatten(), d.Vec(), 0, u)
	jvec := linalg.NewMat(nbf*nbf, 1)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, r.B.Flatten(), u, 0, jvec)

	m := linalg.NewMat(nbf, naux*nocc)
	tp := linalg.NewMat(nbf, nocc)
	for p := 0; p < naux; p++ {
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.B.Slice(p), co, 0, tp)
		for mu := 0; mu < nbf; mu++ {
			copy(m.Row(mu)[p*nocc:(p+1)*nocc], tp.Row(mu))
		}
	}
	k := linalg.NewMat(nbf, nbf)
	linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, m, m, 0, k)

	f := r.H.Clone()
	for i := range f.Data {
		f.Data[i] += jvec.Data[i] - k.Data[i]
	}
	return f
}

// oracleSeparableCoeffs is AddRISeparableCoeffs for a general second
// density Db, with C̃_P = Σ_Q W_QP B_Q and Y_P = Da·C̃_P·Db formed slice
// by slice.
func oracleSeparableCoeffs(r *Result, da, db *linalg.Mat, factor float64, zAcc *linalg.Tensor3, zetaAcc *linalg.Mat) {
	nbf, naux := r.Bs.N, r.Aux.N
	ct := linalg.NewTensor3(naux, nbf, nbf)
	for p := 0; p < naux; p++ {
		cp := ct.Slice(p)
		for q := 0; q < naux; q++ {
			cp.AxpyMat(r.w.At(q, p), r.B.Slice(q))
		}
	}

	jinvU := func(d *linalg.Mat) *linalg.Mat {
		u := linalg.NewMat(naux, 1)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.v3.Flatten(), d.Vec(), 0, u)
		t := linalg.NewMat(naux, 1)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, r.w, u, 0, t)
		w := linalg.NewMat(naux, 1)
		linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, r.w, t, 0, w)
		return w
	}
	wa, wb := jinvU(da), jinvU(db)

	y := linalg.NewTensor3(naux, nbf, nbf)
	tmp := linalg.NewMat(nbf, nbf)
	for p := 0; p < naux; p++ {
		yp, zp := y.Slice(p), zAcc.Slice(p)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, da, ct.Slice(p), 0, tmp)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, tmp, db, 0, yp)
		wap, wbp := wa.Data[p]*factor, wb.Data[p]*factor
		for i := 0; i < nbf; i++ {
			for j := 0; j < nbf; j++ {
				zp.Add(i, j, wbp*da.At(i, j)+wap*db.At(i, j)-0.5*factor*(yp.At(i, j)+yp.At(j, i)))
			}
		}
	}

	gmat := linalg.NewMat(naux, naux)
	linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, y.Flatten(), ct.Flatten(), 0, gmat)
	for p := 0; p < naux; p++ {
		for q := 0; q < naux; q++ {
			v := -0.5*(wa.Data[p]*wb.Data[q]+wb.Data[p]*wa.Data[q]) + 0.25*(gmat.At(p, q)+gmat.At(q, p))
			zetaAcc.Add(p, q, factor*v)
		}
	}
}
