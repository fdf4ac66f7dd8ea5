package mp2

import "github.com/fragmd/fragmd/internal/linalg"

// workspace is the gradient-stage scratch of one Result, sized once from
// (nbf, naux, nocc, nvir) and reused by every routine of Gradients
// and every iteration of the Z-vector solve, so none of them allocates
// per call. It also keeps the MO-basis B tensor resident, split by
// orbital class. The AO-sized three-index scratch (naux·nbf² per slab)
// is not here: the reference's scf.DF owns two such slabs and lends them
// through Scratch3. A workspace belongs to one Result; Results
// are not safe for concurrent use, and concurrent evaluations each own
// their Result.
type workspace struct {
	// B^P_pq in the MO basis, one tensor per orbital-class block, each
	// arranged (row orbital, P, column orbital): flattened either way
	// they contract over (P, orbital) in a single GEMM with no permute.
	// bpvo is the vo block once more, arranged (P, a, i) for the products
	// that contract over (a, i) or apply the metric factor across P.
	boo, bov, bvo, bvv *linalg.Tensor3
	bpvo               *linalg.Tensor3

	u *linalg.Mat // Coulomb vector Σ B^P·z of hessVec, naux × 1

	// Amplitudes t_ij and T̃_ij = 2t_ij − t_ijᵀ, block i·nocc+j of nvir × nvir.
	t, tt      *linalg.Tensor3
	vij        *linalg.Mat
	gamma      *linalg.Tensor3 // γ^P_ia arranged (i, P, a)
	poo, pvv   *linalg.Mat
	lamOcc     *linalg.Mat     // Λ_pi, nbf × nocc
	lamVir     *linalg.Mat     // Λ_pa, nbf × nvir
	gamAux     *linalg.Tensor3 // γ^P_ia rearranged (P, a, i)
	gamT, bT   *linalg.Tensor3 // Wᵀ·γ and Wᵀ·B^vo (scf.DF.ApplyWT), (P, a, i)
	theta, wmo *linalg.Mat

	// Z-vector: the two exchange intermediates of one Hessian application,
	// (j, P, a) and (b, P, a), and the CG vectors, nvir × nocc each.
	hw, hx                 *linalg.Tensor3
	z, res, pre, dir, adir *linalg.Mat

	// Derivative-integral coefficients handed to ThreeCenterDeriv/TwoCenterDeriv.
	zAcc    *linalg.Tensor3
	zetaAcc *linalg.Mat
}

func newWorkspace(nbf, naux, nocc, nvir int) *workspace {
	vo := func() *linalg.Mat { return linalg.NewMat(nvir, nocc) }
	return &workspace{
		boo:  linalg.NewTensor3(nocc, naux, nocc),
		bov:  linalg.NewTensor3(nocc, naux, nvir),
		bvo:  linalg.NewTensor3(nvir, naux, nocc),
		bvv:  linalg.NewTensor3(nvir, naux, nvir),
		bpvo: linalg.NewTensor3(naux, nvir, nocc),

		u: linalg.NewMat(naux, 1),

		t:      linalg.NewTensor3(nocc*nocc, nvir, nvir),
		tt:     linalg.NewTensor3(nocc*nocc, nvir, nvir),
		vij:    linalg.NewMat(nvir, nvir),
		gamma:  linalg.NewTensor3(nocc, naux, nvir),
		poo:    linalg.NewMat(nocc, nocc),
		pvv:    linalg.NewMat(nvir, nvir),
		lamOcc: linalg.NewMat(nbf, nocc),
		lamVir: linalg.NewMat(nbf, nvir),
		gamAux: linalg.NewTensor3(naux, nvir, nocc),
		gamT:   linalg.NewTensor3(naux, nvir, nocc),
		bT:     linalg.NewTensor3(naux, nvir, nocc),
		theta:  vo(),
		wmo:    linalg.NewMat(nbf, nbf),

		hw: linalg.NewTensor3(nocc, naux, nvir),
		hx: linalg.NewTensor3(nvir, naux, nvir),
		z:  vo(), res: vo(), pre: vo(), dir: vo(), adir: vo(),

		zAcc:    linalg.NewTensor3(naux, nbf, nbf),
		zetaAcc: linalg.NewMat(naux, naux),
	}
}

// rowBlock returns the zero-copy view of rows [lo, hi) of m.
func rowBlock(m *linalg.Mat, lo, hi int) *linalg.Mat {
	return &linalg.Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
