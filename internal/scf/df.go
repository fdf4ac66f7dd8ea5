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
// which run on scratch sized once from (nbf, naux). Every pass over the
// three-index tensors runs on one fixed partition of the auxiliary index
// into contiguous blocks (auxBlock), each block a piece of one
// linalg.Parallel call (EachBlock) that does all of the pass's per-P work
// while its rows of B are in cache. A DF belongs to one Result and, like
// it, serves one goroutine at a time.
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

	blk          int         // auxiliary functions per block (auxBlock)
	f, u         *linalg.Mat // Fock matrix, Coulomb vector u_P (naux × 1)
	wa, wb, wt   *linalg.Mat // the two fitted vectors of AddRISeparableCoeffs and Fit's W·u, naux × 1
	slabA, slabB []float64   // naux·nbf² each, handed out by Scratch3
	part         []float64   // one nbf² partial per block, folded in block order (jk)
}

// blockBytes is the size of B one auxiliary block is cut to: 256 KiB,
// which stays in a core's L2 beside the block's half-transformed rows.
const blockBytes = 256 << 10

// auxBlock returns the number of auxiliary functions per block of the
// partition: as many nbf² slices of B as fill blockBytes (at least one),
// evened out over that many blocks. It is a function of (naux, nbf)
// only, so the summation order of every blocked pass — and with it every
// bit of an energy — is the same at every GOMAXPROCS.
func auxBlock(naux, nbf int) int {
	per := max(1, blockBytes/(8*nbf*nbf))
	nblk := (naux + per - 1) / per
	return (naux + nblk - 1) / nblk
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

	df.blk = auxBlock(naux, nbf)
	df.f = linalg.NewMat(nbf, nbf)
	df.u, df.wa, df.wb, df.wt = linalg.NewMat(naux, 1), linalg.NewMat(naux, 1), linalg.NewMat(naux, 1), linalg.NewMat(naux, 1)
	df.slabA, df.slabB = make([]float64, naux*nbf*nbf), make([]float64, naux*nbf*nbf)
	df.part = make([]float64, df.NumBlocks()*nbf*nbf)
	return df, schwarz, nil
}

// NumBlocks returns the number of blocks of the auxiliary partition.
func (df *DF) NumBlocks() int { return (df.Aux.N + df.blk - 1) / df.blk }

// Block returns the auxiliary range [lo, hi) of block b.
func (df *DF) Block(b int) (lo, hi int) {
	return b * df.blk, min((b+1)*df.blk, df.Aux.N)
}

// EachBlock runs fn(b, lo, hi) on every block of the auxiliary partition
// as the pieces of one linalg.Parallel call. A piece writes only its own
// rows of the three-index tensors and partials of its own, and calls no
// fan-out itself (linalg.GemmInline), so which goroutine ran it moves no
// bit.
func (df *DF) EachBlock(fn func(b, lo, hi int)) {
	linalg.Parallel(df.NumBlocks(), 1, linalg.Procs(), func(b, _ int) {
		lo, hi := df.Block(b)
		fn(b, lo, hi)
	})
}

// Scratch3 hands out the two three-index scratch slabs: t is a
// naux × n2 × n3 view of one and tT the naux × n3 × n2 view of the other
// that t.TransposeBlocksInto fills, with n2·n3 ≤ nbf². Their contents
// last until the next Fock build, GOperator, AddRISeparableCoeffs or
// scratch user. A blocked pass writes the rows of its block, t.Span(lo,
// hi), so the whole tensor is there after the join.
func (df *DF) Scratch3(n2, n3 int) (t, tT *linalg.Tensor3) {
	naux := df.Aux.N
	t = &linalg.Tensor3{N1: naux, N2: n2, N3: n3, Data: df.slabA[:naux*n2*n3]}
	tT = &linalg.Tensor3{N1: naux, N2: n3, N3: n2, Data: df.slabB[:naux*n2*n3]}
	return t, tT
}

// Fit sets the naux × 1 vector w to the fitted Coulomb coefficients of
// d, J⁺·u = Wᵀ·(W·u) with u_P = Σ_μν (P|μν) d_μν, u block by block.
func (df *DF) Fit(d, w *linalg.Mat) {
	df.EachBlock(func(_, lo, hi int) {
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, df.v3.Span(lo, hi).Flatten(), d.Vec(), 0, w.RowSpan(lo, hi))
	})
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.w, w, 0, df.wt)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.w, df.wt, 0, w)
}

// HalfBlock sets t_P = B_P·c for every P of the auxiliary block
// [lo, hi), arranged (P, μ, column), and its block transpose tT
// (P, column, μ), on the block's rows of Scratch3(nbf, c.Cols), and
// returns the block's views: the half-transform of the Fock build, the
// G operator, the Qov transform and the MO blocks, one EachBlock piece
// each.
func (df *DF) HalfBlock(c *linalg.Mat, lo, hi int) (t, tT *linalg.Tensor3) {
	t, tT = df.halfBlock(c, lo, hi)
	t.TransposeBlocksInto(tT)
	return t, tT
}

// halfBlock is HalfBlock with tT left unfilled.
func (df *DF) halfBlock(c *linalg.Mat, lo, hi int) (t, tT *linalg.Tensor3) {
	t, tT = df.Scratch3(df.B.N2, c.Cols)
	t, tT = t.Span(lo, hi), tT.Span(lo, hi)
	linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, df.B.Span(lo, hi).FlattenRows(), c, 0, t.FlattenRows())
	return t, tT
}

// ApplyWT sets out_Q = Σ_P W_PQ x_P, the transposed factor across P of a
// quantity fitted with B; x and out are naux × n2 × n3. It mixes every P,
// so it stays one packed product.
func (df *DF) ApplyWT(x, out *linalg.Tensor3) {
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.w, x.Flatten(), 0, out.Flatten())
}

// GOperator applies the closed-shell response operator
// G[M] = J[M] − ½K[M] to a symmetric AO matrix m, writing out, with
// K[M] = Σ_P B_P·M·B_P: jk with X_P = (B_P·M)ᵀ against R_P = B_P.
func (df *DF) GOperator(m, out *linalg.Mat) {
	out.Zero()
	df.jk(m, m, -0.5, false, out)
}

// fock builds F = h + J − ½K (paper Eq. 8) into the Fock buffer, which
// the next call overwrites. co is the occupied coefficient block.
// Exchange: K = Σ_Pi T_Pμi T_Pνi is YᵀY over the block-transposed rows
// Y_(P,i),μ of T_P = B_P·C_o, and YᵀY = Σ_P B_P (C_o C_oᵀ) B_P = ½ K[D]
// since D = 2 C_o C_oᵀ, so the −½K[D] exchange term is jk's −1·YᵀY.
func (df *DF) fock(h, d, co *linalg.Mat) *linalg.Mat {
	df.f.CopyFrom(h)
	df.jk(d, co, -1, true, df.f)
	return df.f
}

// jk adds J[d] + α·Σ_P X_Pᵀ·R_P onto out, where X_P is the block
// transpose of T_P = B_P·c, rows (column, μ), and R_P is X_P itself
// (self) or B_P. Each block of EachBlock makes u_P = B_P·vec d on its rows
// of u, its Coulomb part Σ_P u_P·B_P, T_P and X_P on its rows of the
// slabs, and the contraction over its (P, row) pairs, into a partial of
// its own; the partials are added onto out in block order.
func (df *DF) jk(d, c *linalg.Mat, alpha float64, self bool, out *linalg.Mat) {
	nbf := df.B.N2
	n2 := nbf * nbf
	df.EachBlock(func(b, lo, hi int) {
		bb := df.B.Span(lo, hi)
		part := &linalg.Mat{Rows: nbf, Cols: nbf, Data: df.part[b*n2 : (b+1)*n2]}
		u := df.u.RowSpan(lo, hi)
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, bb.Flatten(), d.Vec(), 0, u)
		linalg.GemmInline(linalg.Trans, linalg.NoTrans, 1, bb.Flatten(), u, 0, part.Vec())
		_, x := df.HalfBlock(c, lo, hi)
		r := bb
		if self {
			r = x
		}
		linalg.GemmInline(linalg.Trans, linalg.NoTrans, alpha, x.FlattenRows(), r.FlattenRows(), 1, part)
	})
	for b := range df.NumBlocks() {
		for i, v := range df.part[b*n2 : (b+1)*n2] {
			out.Data[i] += v
		}
	}
}
