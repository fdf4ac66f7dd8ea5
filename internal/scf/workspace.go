package scf

import "github.com/fragmd/fragmd/internal/linalg"

// workspace is the scratch of one Result's RI contractions, sized once
// from (nbf, naux): every Fock build of the SCF loop and every
// AddRISeparableCoeffs call of the gradient runs on these buffers, so
// neither allocates per iteration. A workspace belongs to one Result;
// Results are not safe for concurrent use, and concurrent evaluations
// each own their Result.
type workspace struct {
	f, k, u *linalg.Mat // Fock matrix, exchange matrix, Coulomb vector u_P (naux × 1)

	// AddRISeparableCoeffs: the J⁻¹-applied Coulomb vectors of the two
	// densities and the half-applied intermediate, naux × 1.
	wa, wb, wt *linalg.Mat

	// Three-index scratch, naux·nbf·nbf each, handed out by Scratch3: the
	// half-transformed B of a Fock build, the exchange intermediates of
	// the gradient coefficients, and whatever package mp2 borrows them for
	// never overlap in time.
	slabA, slabB []float64
}

func newWorkspace(nbf, naux int) *workspace {
	return &workspace{
		f:     linalg.NewMat(nbf, nbf),
		k:     linalg.NewMat(nbf, nbf),
		u:     linalg.NewMat(naux, 1),
		wa:    linalg.NewMat(naux, 1),
		wb:    linalg.NewMat(naux, 1),
		wt:    linalg.NewMat(naux, 1),
		slabA: make([]float64, naux*nbf*nbf),
		slabB: make([]float64, naux*nbf*nbf),
	}
}

// Scratch3 hands out the Result's two three-index scratch slabs, also to
// a caller that continues the RI pipeline on this Result (package mp2):
// t is a naux × n2 × n3 view of one slab and tT the naux × n3 × n2 view
// of the other that t.TransposeBlocksInto fills, with n2·n3 ≤ nbf².
// Their contents are unspecified and last until the next Fock build,
// AddRISeparableCoeffs or Scratch3 user.
func (r *Result) Scratch3(n2, n3 int) (t, tT *linalg.Tensor3) {
	naux := r.Aux.N
	t = &linalg.Tensor3{N1: naux, N2: n2, N3: n3, Data: r.ws.slabA[:naux*n2*n3]}
	tT = &linalg.Tensor3{N1: naux, N2: n3, N3: n2, Data: r.ws.slabB[:naux*n2*n3]}
	return t, tT
}
