package mp2

import "github.com/fragmd/fragmd/internal/linalg"

// workspace is the gradient-stage scratch of one Result, sized once from
// (nbf, naux, nocc, nvir) and the number of auxiliary blocks, and reused
// by every routine of Gradients and every iteration of the Z-vector
// solve, so none of them allocates per call. It also keeps the MO-basis
// B tensor resident, split by orbital class. The AO-sized three-index
// tensors are not here: the reference's scf.DF owns two naux·nbf² scratch
// slabs and lends them through Scratch3, and the derivative coefficients
// Z and ζ are allocated, zeroed, by the RI piece of each gradient
// (riGrad). A workspace belongs to one Result; Results
// are not safe for concurrent use, and concurrent evaluations each own
// their Result.
type workspace struct {
	// B^P_pq in the MO basis, one tensor per orbital-class block, the
	// oo, ov and vv blocks arranged (row orbital, P, column orbital):
	// flattened either way they contract over (P, orbital) in a single
	// GEMM with no permute. The vo block is arranged (P, a, i), for the
	// products that run on auxiliary blocks, contract over (a, i) or
	// apply the metric factor across P.
	boo, bov, bvv *linalg.Tensor3
	bpvo          *linalg.Tensor3

	u *linalg.Mat // Coulomb vector Σ B^P·z of hessVec, naux × 1

	// Amplitudes t_ij and T̃_ij = 2t_ij − t_ijᵀ, block i·nocc+j of nvir × nvir.
	t, tt      *linalg.Tensor3
	vij        *linalg.Tensor3 // (ia|jb) of one pair, one nvir × nvir block per occupied orbital
	gamma      *linalg.Tensor3 // γ^P_ia arranged (i, P, a)
	poo, pvv   *linalg.Mat
	lamOcc     *linalg.Mat     // Λ_pi, nbf × nocc
	lamVir     *linalg.Mat     // Λ_pa, nbf × nvir
	gamAux     *linalg.Tensor3 // γ^P_ia rearranged (P, a, i)
	gamT, bT   *linalg.Tensor3 // Wᵀ·γ and Wᵀ·B^vo (scf.DF.ApplyWT), (P, a, i)
	theta, wmo *linalg.Mat

	// Z-vector: the (ab|ij) intermediate Y = z·B^oo of one Hessian
	// application, arranged (b, P, i), one nvir × nocc partial per piece
	// of hessVec, and the CG vectors, nvir × nocc each.
	hy                     *linalg.Tensor3
	hpart                  []float64
	z, res, pre, dir, adir *linalg.Mat
}

func newWorkspace(nbf, naux, nocc, nvir, nblk int) *workspace {
	vo := func() *linalg.Mat { return linalg.NewMat(nvir, nocc) }
	return &workspace{
		boo:  linalg.NewTensor3(nocc, naux, nocc),
		bov:  linalg.NewTensor3(nocc, naux, nvir),
		bvv:  linalg.NewTensor3(nvir, naux, nvir),
		bpvo: linalg.NewTensor3(naux, nvir, nocc),

		u: linalg.NewMat(naux, 1),

		t:      linalg.NewTensor3(nocc*nocc, nvir, nvir),
		tt:     linalg.NewTensor3(nocc*nocc, nvir, nvir),
		vij:    linalg.NewTensor3(nocc, nvir, nvir),
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

		hy:    linalg.NewTensor3(nvir, naux, nocc),
		hpart: make([]float64, (nblk+nvir)*nvir*nocc),
		z:     vo(), res: vo(), pre: vo(), dir: vo(), adir: vo(),
	}
}
