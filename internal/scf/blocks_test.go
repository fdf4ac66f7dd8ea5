package scf

import (
	"math"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// The single-pass bodies below are the DF operations as they ran before
// the auxiliary index was cut into blocks: one flattened product over
// all of P per step. They are the oracles of the blocked passes.

// singlePassFock is fock: F = h + J[d] − YᵀY with Y the block transpose
// of B·C_o.
func singlePassFock(df *DF, h, d, co *linalg.Mat) *linalg.Mat {
	f := h.Clone()
	singlePassCoulomb(df, d, 1, f)
	_, halfT := singlePassHalf(df, co)
	y := halfT.FlattenRows()
	k := linalg.NewMat(f.Rows, f.Cols)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, y, y, 0, k)
	f.AxpyMat(-1, k)
	return f
}

// singlePassCoulomb sets vec out = β·vec out + Bᵀ·(B·vec d).
func singlePassCoulomb(df *DF, d *linalg.Mat, beta float64, out *linalg.Mat) {
	u := linalg.NewMat(df.Aux.N, 1)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.B.Flatten(), d.Vec(), 0, u)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.B.Flatten(), u, beta, out.Vec())
}

// singlePassHalf is HalfBlock on all of P at once: B·c over the
// flattened (P, μ) rows and its block transpose, on fresh tensors.
func singlePassHalf(df *DF, c *linalg.Mat) (t, tT *linalg.Tensor3) {
	naux, nbf := df.Aux.N, df.B.N2
	t, tT = linalg.NewTensor3(naux, nbf, c.Cols), linalg.NewTensor3(naux, c.Cols, nbf)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.B.FlattenRows(), c, 0, t.FlattenRows())
	t.TransposeBlocksInto(tT)
	return t, tT
}

// singlePassGOperator is GOperator: Coulomb, then −½ Σ_(P,λ) of the block
// transpose of B·M against flat B.
func singlePassGOperator(df *DF, m *linalg.Mat) *linalg.Mat {
	out := linalg.NewMat(m.Rows, m.Cols)
	singlePassCoulomb(df, m, 0, out)
	_, tT := singlePassHalf(df, m)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, -0.5, tT.FlattenRows(), df.B.FlattenRows(), 1, out)
	return out
}

// singlePassFit is Fit: Wᵀ·(W·(V3·vec d)).
func singlePassFit(df *DF, d *linalg.Mat) *linalg.Mat {
	naux := df.Aux.N
	u, t, w := linalg.NewMat(naux, 1), linalg.NewMat(naux, 1), linalg.NewMat(naux, 1)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.v3.Flatten(), d.Vec(), 0, u)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, df.w, u, 0, t)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, df.w, t, 0, w)
	return w
}

// singlePassSeparableCoeffs is AddRISeparableCoeffs with every P-local
// stage one flattened product over all of P.
func singlePassSeparableCoeffs(r *Result, da *linalg.Mat, factor float64, zAcc *linalg.Tensor3, zetaAcc *linalg.Mat) {
	nbf, naux, nocc := r.Bs.N, r.Aux.N, r.NOcc
	co := r.COcc()
	wa, wb := singlePassFit(r.DF, da).Data, singlePassFit(r.DF, r.D).Data
	x, _ := singlePassHalf(r.DF, co)
	h := linalg.NewTensor3(naux, nbf, nocc)
	r.ApplyWT(x, h)
	xT := linalg.NewTensor3(naux, nocc, nbf)
	h.TransposeBlocksInto(xT)
	mT, m := linalg.NewTensor3(naux, nocc, nbf), linalg.NewTensor3(naux, nbf, nocc)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, xT.FlattenRows(), da, 0, mT.FlattenRows())
	mT.TransposeBlocksInto(m)
	for p := 0; p < naux; p++ {
		wap, wbp := wa[p]*factor, wb[p]*factor
		zp := zAcc.Data[p*nbf*nbf : (p+1)*nbf*nbf]
		for i := range zp {
			zp[i] += wbp*da.Data[i] + wap*r.D.Data[i]
		}
	}
	linalg.Gemm(linalg.NoTrans, linalg.Trans, -2*factor, m.FlattenRows(), co, 1, zAcc.FlattenRows())
	linalg.Gemm(linalg.NoTrans, linalg.Trans, factor, m.Flatten(), h.Flatten(), 1, zetaAcc)
	for p := 0; p < naux; p++ {
		zrow := zetaAcc.Row(p)
		for q := range zrow {
			zrow[q] -= 0.5 * factor * (wa[p]*wb[q] + wb[p]*wa[q])
		}
	}
}

type blockCase struct {
	name  string
	basis string
	geom  *molecule.Geometry
	field *integrals.PointCharges
}

// blockCases are the sto-3g trimer (six blocks of 69), the same trimer
// in a point-charge field, the dzp dimer (naux 500 in blocks of 13, the
// last one 6 long) and the sto-3g monomer (one block), all with the
// default auxiliary basis.
func blockCases() []blockCase {
	return []blockCase{
		{"sto3g-trimer", "sto-3g", molecule.WaterCluster(3), nil},
		{"sto3g-trimer-field", "sto-3g", molecule.WaterCluster(3), embedField()},
		{"dzp-dimer", "dzp", molecule.WaterCluster(2), nil},
		{"sto3g-monomer", "sto-3g", molecule.Water(), nil},
	}
}

func (c blockCase) eval(t *testing.T) *Result {
	t.Helper()
	bs, err := basis.Build(c.basis, c.geom)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RHF(c.geom, bs, Options{UseRI: true, EmbedCharges: c.field})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkRel fails unless got is within 1e-12 of want relative to want's
// largest entry.
func checkRel(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, single pass %d", what, len(got), len(want))
	}
	var mx, scale float64
	for i, v := range got {
		mx = math.Max(mx, math.Abs(v-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if !(mx <= 1e-12*scale) {
		t.Errorf("%s: blocked differs from the single pass by %.3g (> 1e-12 × %.3g)", what, mx, scale)
	}
}

// Every blocked DF pass against its single-pass body, on the converged
// state and on a perturbed occupied block, with the partition checked to
// be what the case stands for.
func TestBatchedDFBlocksMatchSinglePass(t *testing.T) {
	for _, c := range blockCases() {
		t.Run(c.name, func(t *testing.T) {
			r := c.eval(t)
			df, nbf, naux := r.DF, r.Bs.N, r.Aux.N
			switch nblk := df.NumBlocks(); c.name {
			case "sto3g-monomer":
				if nblk != 1 {
					t.Fatalf("%d blocks, want one", nblk)
				}
			case "dzp-dimer":
				if naux%df.blk == 0 {
					t.Fatalf("naux %d is a multiple of the block size %d", naux, df.blk)
				}
			default:
				if nblk < 2 {
					t.Fatalf("%d blocks, want several", nblk)
				}
			}
			if lo, _ := df.Block(0); lo != 0 {
				t.Fatalf("block 0 starts at %d", lo)
			}
			for b := 1; b < df.NumBlocks(); b++ {
				_, prevHi := df.Block(b - 1)
				if lo, hi := df.Block(b); lo != prevHi || hi <= lo {
					t.Fatalf("block %d is [%d, %d) after one ending at %d", b, lo, hi, prevHi)
				}
			}
			if _, hi := df.Block(df.NumBlocks() - 1); hi != naux {
				t.Fatalf("the last block ends at %d, naux %d", hi, naux)
			}

			co := r.COcc()
			checkRel(t, "Fock", df.fock(r.H, r.D, co).Data, singlePassFock(df, r.H, r.D, co).Data)
			// With a zero occupied block the exchange vanishes: F = h + J.
			zero := linalg.NewMat(nbf, r.NOcc)
			checkRel(t, "Coulomb", df.fock(r.H, r.D, zero).Data, singlePassFock(df, r.H, r.D, zero).Data)
			for i := range co.Data {
				co.Data[i] *= 1 + 0.01*math.Sin(float64(i))
			}
			d := densityFromC(co, r.NOcc)
			checkRel(t, "Fock of a perturbed C_o", df.fock(r.H, d, co).Data, singlePassFock(df, r.H, d, co).Data)

			// A general symmetric matrix for GOperator, Fit and the
			// separable coefficients.
			m := r.EnergyWeightedDensity()
			m.AxpyMat(0.5, r.D)
			g := linalg.NewMat(nbf, nbf)
			df.GOperator(m, g)
			checkRel(t, "GOperator", g.Data, singlePassGOperator(df, m).Data)

			w := linalg.NewMat(naux, 1)
			df.Fit(m, w)
			checkRel(t, "Fit", w.Data, singlePassFit(df, m).Data)

			df.EachBlock(func(_, lo, hi int) { df.HalfBlock(r.C, lo, hi) })
			tb, tTb := df.Scratch3(nbf, nbf)
			to, tTo := singlePassHalf(df, r.C)
			checkRel(t, "Half", tb.Data, to.Data)
			checkRel(t, "Half transpose", tTb.Data, tTo.Data)

			zb, cb := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
			zo, cO := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
			r.AddRISeparableCoeffs(m, 1, zb, cb)
			singlePassSeparableCoeffs(r, m, 1, zo, cO)
			checkRel(t, "separable Z_Pμν", zb.Data, zo.Data)
			checkRel(t, "separable ζ_PQ", cb.Data, cO.Data)
		})
	}
}

// The partition is a function of (naux, nbf) alone, so the SCF energy
// and its iteration count are the same at every GOMAXPROCS, to the bit.
// The dzp dimer's three SCFs are left to the full run.
func TestBatchedDFBlocksEnergyBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range blockCases() {
		if c.basis == "dzp" && testing.Short() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			var e0 float64
			var iters0 int
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				r := c.eval(t)
				if procs == 1 {
					e0, iters0 = r.Energy, r.Iters
					continue
				}
				if math.Float64bits(r.Energy) != math.Float64bits(e0) || r.Iters != iters0 {
					t.Errorf("GOMAXPROCS %d: E %.17g in %d iterations, GOMAXPROCS 1: %.17g in %d",
						procs, r.Energy, r.Iters, e0, iters0)
				}
			}
		})
	}
}
