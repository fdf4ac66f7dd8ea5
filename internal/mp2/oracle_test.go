package mp2

import (
	"errors"
	"math"

	"github.com/fragmd/fragmd/internal/linalg"
)

// The oracles below are the per-auxiliary-index loops the gradient ran
// before its contractions were batched: one small GEMM pair per slice P,
// fresh temporaries everywhere, the Z-vector Hessian through the AO
// basis. They see only the AO-basis B tensor and the MO coefficients, so
// every batched routine is checked against an independent evaluation.

// oracleBmo returns B^P_pq = (Cᵀ B_P C) arranged (P, p, q), one sandwich
// per slice.
func oracleBmo(r *Result) *linalg.Tensor3 {
	ref := r.SCF
	bmo := linalg.NewTensor3(ref.Aux.N, ref.Bs.N, ref.Bs.N)
	for p := 0; p < ref.Aux.N; p++ {
		bmo.Slice(p).CopyFrom(sandwichFull(ref.C, ref.B.Slice(p)))
	}
	return bmo
}

// oracleBov extracts B^P_ia arranged (i, P, a) from the full-MO tensor.
func oracleBov(r *Result, bmo *linalg.Tensor3) *linalg.Tensor3 {
	nocc, nvir := r.SCF.NOcc, r.SCF.NVirt()
	bov := linalg.NewTensor3(nocc, bmo.N1, nvir)
	for p := 0; p < bmo.N1; p++ {
		for i := 0; i < nocc; i++ {
			copy(bov.Slice(i).Row(p), bmo.Slice(p).Row(i)[nocc:])
		}
	}
	return bov
}

type oracleAmps struct {
	tAll     []*linalg.Mat // t_ij for all ordered (i, j)
	gamma    *linalg.Tensor3
	poo, pvv *linalg.Mat
}

func tildeOf(t *linalg.Mat) *linalg.Mat {
	tt := linalg.NewMat(t.Rows, t.Cols)
	for a := 0; a < t.Rows; a++ {
		for b := 0; b < t.Cols; b++ {
			tt.Set(a, b, 2*t.At(a, b)-t.At(b, a))
		}
	}
	return tt
}

// oracleAmplitudes builds amplitudes, γ, P_oo and P_vv pair by pair,
// re-deriving T̃ wherever it is used.
func oracleAmplitudes(r *Result, bov *linalg.Tensor3) oracleAmps {
	nocc, nvir, naux := r.SCF.NOcc, r.SCF.NVirt(), r.SCF.Aux.N
	eps := r.SCF.Eps
	tAll := make([]*linalg.Mat, nocc*nocc)
	vij := linalg.NewMat(nvir, nvir)
	for i := 0; i < nocc; i++ {
		for j := i; j < nocc; j++ {
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, bov.Slice(i), bov.Slice(j), 0, vij)
			tij := linalg.NewMat(nvir, nvir)
			for a := 0; a < nvir; a++ {
				ea := eps[i] + eps[j] - eps[nocc+a]
				for b := 0; b < nvir; b++ {
					tij.Set(a, b, vij.At(a, b)/(ea-eps[nocc+b]))
				}
			}
			tAll[i*nocc+j] = tij
			if i != j {
				tAll[j*nocc+i] = tij.T()
			}
		}
	}
	o := oracleAmps{
		tAll:  tAll,
		gamma: linalg.NewTensor3(nocc, naux, nvir),
		poo:   linalg.NewMat(nocc, nocc),
		pvv:   linalg.NewMat(nvir, nvir),
	}
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			tij := tAll[i*nocc+j]
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, bov.Slice(j), tildeOf(tij), 1, o.gamma.Slice(i))
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 2, tildeOf(tij), tij, 1, o.pvv)
			var s float64
			for k := 0; k < nocc; k++ {
				s += linalg.Dot(tildeOf(tAll[i*nocc+k]), tAll[j*nocc+k])
			}
			o.poo.Set(i, j, -2*s)
		}
	}
	return o
}

// oracleLagrangian accumulates Λ_pi and Λ_pa one auxiliary slice at a time.
func oracleLagrangian(r *Result, bmo, gamma *linalg.Tensor3) (lamOcc, lamVir *linalg.Mat) {
	nbf, nocc, nvir := r.SCF.Bs.N, r.SCF.NOcc, r.SCF.NVirt()
	lamOcc = linalg.NewMat(nbf, nocc)
	lamVir = linalg.NewMat(nbf, nvir)
	bpo := linalg.NewMat(nbf, nocc)
	bpv := linalg.NewMat(nbf, nvir)
	gp := linalg.NewMat(nocc, nvir)
	for p := 0; p < bmo.N1; p++ {
		bp := bmo.Slice(p)
		for q := 0; q < nbf; q++ {
			copy(bpo.Row(q), bp.Row(q)[:nocc])
			copy(bpv.Row(q), bp.Row(q)[nocc:])
		}
		for i := 0; i < nocc; i++ {
			copy(gp.Row(i), gamma.Slice(i).Row(p))
		}
		linalg.Gemm(linalg.NoTrans, linalg.Trans, 4, bpv, gp, 1, lamOcc)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 4, bpo, gp, 1, lamVir)
	}
	return lamOcc, lamVir
}

// oracleGOperator is G[M] = J[M] − ½K[M] with K built as 2·naux small GEMMs.
func oracleGOperator(r *Result, m *linalg.Mat) *linalg.Mat {
	ref := r.SCF
	nbf, naux := ref.Bs.N, ref.Aux.N
	u := linalg.NewMat(naux, 1)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, ref.B.Flatten(), m.Vec(), 0, u)
	out := linalg.NewMat(nbf, nbf)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, ref.B.Flatten(), u, 0, out.Vec())
	t1 := linalg.NewMat(nbf, nbf)
	t2 := linalg.NewMat(nbf, nbf)
	for p := 0; p < naux; p++ {
		bp := ref.B.Slice(p)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, bp, m, 0, t1)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, t1, bp, 0, t2)
		out.AxpyMat(-0.5, t2)
	}
	return out
}

// oracleHessVec applies the orbital Hessian through the AO basis:
// (Az)_ai = (εa−εi) z_ai + 2 (CᵀG[Dz]C)_ai, Dz = Cv z Coᵀ + Co zᵀ Cvᵀ.
func oracleHessVec(r *Result, z *linalg.Mat) *linalg.Mat {
	ref := r.SCF
	nocc, nvir := ref.NOcc, ref.NVirt()
	eps := ref.Eps
	dz := symOV(ref.CVirt(), z, ref.COcc())
	gmo := r.toMO(oracleGOperator(r, dz))
	out := linalg.NewMat(nvir, nocc)
	for a := 0; a < nvir; a++ {
		for i := 0; i < nocc; i++ {
			out.Set(a, i, (eps[nocc+a]-eps[i])*z.At(a, i)+2*gmo.At(nocc+a, i))
		}
	}
	return out
}

// oraclePlainCG is the unpreconditioned conjugate-gradient Z-vector
// solve: the orbital-energy denominators only seed the initial guess.
func oraclePlainCG(r *Result, theta *linalg.Mat) (z *linalg.Mat, iters int, err error) {
	nocc, nvir := r.SCF.NOcc, r.SCF.NVirt()
	eps := r.SCF.Eps
	z = linalg.NewMat(nvir, nocc)
	for a := 0; a < nvir; a++ {
		for i := 0; i < nocc; i++ {
			z.Set(a, i, theta.At(a, i)/(eps[nocc+a]-eps[i]))
		}
	}
	res := theta.Clone()
	res.AxpyMat(-1, oracleHessVec(r, z))
	p := res.Clone()
	rr := linalg.Dot(res, res)
	norm0 := math.Sqrt(linalg.Dot(theta, theta))
	if norm0 == 0 {
		return z, 0, nil
	}
	for iter := 0; iter < zvecMaxIter; iter++ {
		if math.Sqrt(rr) < zvecTol*math.Max(1, norm0) {
			return z, iter, nil
		}
		ap := oracleHessVec(r, p)
		alpha := rr / linalg.Dot(p, ap)
		z.AxpyMat(alpha, p)
		res.AxpyMat(-alpha, ap)
		rrNew := linalg.Dot(res, res)
		p.Scale(rrNew / rr)
		p.AxpyMat(1, res)
		rr = rrNew
	}
	return nil, 0, errors.New("plain Z-vector CG did not converge")
}

// oracleBackTransform accumulates 4·C_o·Γ̃_P·C_vᵀ into z slice by slice;
// gamT is the J^{-1/2}-transformed amplitude density arranged (P, a, i).
func oracleBackTransform(r *Result, gamT, z *linalg.Tensor3) {
	ref := r.SCF
	nbf, nocc, nvir := ref.Bs.N, ref.NOcc, ref.NVirt()
	co, cv := ref.COcc(), ref.CVirt()
	gmo := linalg.NewMat(nocc, nvir)
	t2 := linalg.NewMat(nocc, nbf)
	t3 := linalg.NewMat(nbf, nbf)
	for p := 0; p < gamT.N1; p++ {
		for i := 0; i < nocc; i++ {
			for a := 0; a < nvir; a++ {
				gmo.Set(i, a, gamT.At(p, a, i))
			}
		}
		linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, gmo, cv, 0, t2)
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, co, t2, 0, t3)
		z.Slice(p).AxpyMat(4, t3)
	}
}
