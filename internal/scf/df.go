package scf

import (
	"cmp"
	"errors"
	"fmt"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// DF is the density-fitting (RI) factorisation of one SCF Result, kept
// resident for the MP2 stage, and the one owner of how B, the raw
// integrals and the metric factor are stored: the Fock build, the
// gradient coefficients and package mp2 contract through its methods,
// which run on scratch sized once from (nbf, naux). A DF belongs to one
// Result and, like it, serves one goroutine at a time.
type DF struct {
	Aux     *basis.Set
	J2      *linalg.Mat     // (P|Q)
	B       *linalg.Tensor3 // B^P_μν = Σ_Q W_PQ (Q|μν)
	Dropped int             // metric directions under MetricDropTol that W projects out

	v3 *linalg.Tensor3 // raw (P|μν), read by Fit only
	// w is the factor W of the metric pseudo-inverse, WᵀW = J⁺ (the
	// near-null directions of J projected out). It is not symmetric:
	// apply W to integrals, Wᵀ to fitted quantities.
	w *linalg.Mat

	f, k, u      *linalg.Mat // Fock matrix, exchange matrix, Coulomb vector u_P (naux × 1)
	wa, wb, wt   *linalg.Mat // the two fitted vectors of AddRISeparableCoeffs and Fit's W·u, naux × 1
	slabA, slabB []float64   // naux·nbf² each, handed out by Scratch3
}

// MetricDropTol is the relative eigenvalue threshold under which the RI
// metric's directions are projected out: eigen-directions of J under
// MetricDropTol·λmax (canonical orthogonalisation of the auxiliary basis).
const MetricDropTol = 1e-10

// riMetricFactor returns the factor W of the RI metric's pseudo-inverse,
// WᵀW = J⁺, with the directions under MetricDropTol projected out, and
// their number. linalg.MetricFactor does this without a full
// eigendecomposition; a metric that is singular to working precision
// (coincident auxiliary centres) has no Cholesky factor and takes the
// symmetric eigen-root J^{-1/2} instead, which is as valid a W.
func riMetricFactor(j2 *linalg.Mat) (*linalg.Mat, int, error) {
	const what = "RI Coulomb metric (P|Q)"
	w, dropped, err := linalg.MetricFactor(j2, MetricDropTol)
	if errors.Is(err, linalg.ErrSingular) {
		w, dropped = linalg.InvSqrtSym(j2, MetricDropTol)
		return w, dropped, eigFailed(what, w.Data)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("scf: factorising the %s: %w", what, err)
	}
	return w, dropped, nil
}

// newDF builds the RI factorisation of bs on g: the auxiliary basis, the
// three-center integrals (Schwarz-screened at opts.RIScreenThresh when
// that is positive, the bounds returned as schwarz), the metric, its
// factor and B = W·V3. The metric and its factor share no data with the
// three-center integrals, so they run as the two pieces of one
// linalg.Parallel call, alongside — the caller's own set-up — on the
// integral piece before them. Each piece owns its outputs and its error;
// the integral piece's error is reported first.
func newDF(g *molecule.Geometry, bs *basis.Set, opts Options, alongside func() error) (df *DF, schwarz *linalg.Mat, _ error) {
	aux := basis.BuildAux(bs, g, opts.AuxOpts)
	df = &DF{Aux: aux}
	var errInts, errMetric error
	linalg.Parallel(2, 1, linalg.Procs(), func(piece, _ int) {
		if piece == 0 {
			if errInts = alongside(); errInts != nil {
				return
			}
			if opts.RIScreenThresh > 0 {
				schwarz = integrals.SchwarzShellPairs(bs)
				df.v3 = integrals.ThreeCenterScreened(bs, aux, schwarz, opts.RIScreenThresh)
			} else {
				df.v3 = integrals.ThreeCenter(bs, aux)
			}
			return
		}
		df.J2 = integrals.TwoCenter(aux)
		if errMetric = requireFinite("RI Coulomb metric (P|Q)", df.J2); errMetric == nil {
			df.w, df.Dropped, errMetric = riMetricFactor(df.J2)
		}
	})
	if err := cmp.Or(errInts, errMetric); err != nil {
		return nil, nil, err
	}
	nbf, naux := bs.N, aux.N
	df.B = linalg.NewTensor3(naux, nbf, nbf)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.w, df.v3.Flatten(), 0, df.B.Flatten())

	df.f, df.k = linalg.NewMat(nbf, nbf), linalg.NewMat(nbf, nbf)
	df.u, df.wa, df.wb, df.wt = linalg.NewMat(naux, 1), linalg.NewMat(naux, 1), linalg.NewMat(naux, 1), linalg.NewMat(naux, 1)
	df.slabA, df.slabB = make([]float64, naux*nbf*nbf), make([]float64, naux*nbf*nbf)
	return df, schwarz, nil
}

// Scratch3 hands out the two three-index scratch slabs: t is a
// naux × n2 × n3 view of one and tT the naux × n3 × n2 view of the other
// that t.TransposeBlocksInto fills, with n2·n3 ≤ nbf². Their contents
// last until the next Fock build, Half, GOperator, AddRISeparableCoeffs
// or Scratch3 user.
func (df *DF) Scratch3(n2, n3 int) (t, tT *linalg.Tensor3) {
	naux := df.Aux.N
	t = &linalg.Tensor3{N1: naux, N2: n2, N3: n3, Data: df.slabA[:naux*n2*n3]}
	tT = &linalg.Tensor3{N1: naux, N2: n3, N3: n2, Data: df.slabB[:naux*n2*n3]}
	return t, tT
}

// Coulomb sets vec out = β·vec out + Bᵀ·u with u_P = Σ_μν B_Pμν d_μν, the
// RI Coulomb matrix J[d] added onto β·out.
func (df *DF) Coulomb(d *linalg.Mat, beta float64, out *linalg.Mat) {
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.B.Flatten(), d.Vec(), 0, df.u)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.B.Flatten(), df.u, beta, out.Vec())
}

// Fit sets the naux × 1 vector w to the fitted Coulomb coefficients of
// d, J⁺·u = Wᵀ·(W·u) with u_P = Σ_μν (P|μν) d_μν.
func (df *DF) Fit(d, w *linalg.Mat) {
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.v3.Flatten(), d.Vec(), 0, w)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.w, w, 0, df.wt)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.w, df.wt, 0, w)
}

// Half sets t_P = B_P·c for every P in one flattened product, arranged
// (P, μ, column), and its block transpose tT (P, column, μ), on the
// Scratch3 slabs.
func (df *DF) Half(c *linalg.Mat) (t, tT *linalg.Tensor3) {
	t, tT = df.half(c)
	t.TransposeBlocksInto(tT)
	return t, tT
}

// half is Half with tT left unfilled.
func (df *DF) half(c *linalg.Mat) (t, tT *linalg.Tensor3) {
	t, tT = df.Scratch3(df.B.N2, c.Cols)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.B.FlattenRows(), c, 0, t.FlattenRows())
	return t, tT
}

// ApplyWT sets out_Q = Σ_P W_PQ x_P, the transposed factor across P of a
// quantity fitted with B; x and out are naux × n2 × n3.
func (df *DF) ApplyWT(x, out *linalg.Tensor3) {
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.w, x.Flatten(), 0, out.Flatten())
}

// GOperator applies the closed-shell response operator
// G[M] = J[M] − ½K[M] to a symmetric AO matrix m, writing out:
// K[M] = Σ_P B_P·M·B_P is Half(m) and one contraction over (P, λ).
func (df *DF) GOperator(m, out *linalg.Mat) {
	df.Coulomb(m, 0, out)
	_, tT := df.Half(m)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, -0.5, tT.FlattenRows(), df.B.FlattenRows(), 1, out)
}

// fock builds F = h + J − ½K (paper Eq. 8) into the Fock buffer, which
// the next call overwrites. co is the occupied coefficient block.
func (df *DF) fock(h, d, co *linalg.Mat) *linalg.Mat {
	f := df.f
	f.CopyFrom(h)
	df.Coulomb(d, 1, f)

	// Exchange: K = Σ_Pi T_Pμi T_Pνi as YᵀY over the block-transposed
	// rows Y_(P,i),μ of T = Half(C_o) — two packed GEMMs instead of naux
	// small ones. YᵀY = Σ_P B_P (C_o C_oᵀ) B_P = ½ K[D] since
	// D = 2 C_o C_oᵀ, so the −½K[D] exchange term is −1·(YᵀY).
	_, halfT := df.Half(co)
	y := halfT.FlattenRows()
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, y, y, 0, df.k)
	f.AxpyMat(-1, df.k)
	return f
}
