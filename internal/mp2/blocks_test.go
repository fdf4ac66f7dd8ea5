package mp2

import (
	"math"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

// The single-pass bodies below are the MP2 stages as they ran before the
// auxiliary index was cut into blocks: one flattened product over all of
// P, or over all orbitals, per step. They are the oracles of the blocked
// stages.

// singlePassMOBlocks returns B^P_pq = (Cᵀ B_P C) arranged (P, p, q) from
// two flattened products over all (P, μ) rows.
func singlePassMOBlocks(r *Result) *linalg.Tensor3 {
	ref := r.SCF
	naux, nbf := ref.Aux.N, ref.Bs.N
	t, tT := linalg.NewTensor3(naux, nbf, nbf), linalg.NewTensor3(naux, nbf, nbf)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, ref.B.FlattenRows(), ref.C, 0, t.FlattenRows())
	t.TransposeBlocksInto(tT)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, tT.FlattenRows(), ref.C, 0, t.FlattenRows())
	return t
}

// singlePassAmplitudes is amplitudes as one loop over the pairs, on
// fresh tensors: t, T̃, γ (i, P, a), P_oo and P_vv.
func singlePassAmplitudes(r *Result) (t, tt, gamma *linalg.Tensor3, poo, pvv *linalg.Mat) {
	ws := r.ws
	nocc, nvir, naux := r.SCF.NOcc, r.SCF.NVirt(), r.SCF.Aux.N
	eps := r.SCF.Eps
	t, tt = linalg.NewTensor3(nocc*nocc, nvir, nvir), linalg.NewTensor3(nocc*nocc, nvir, nvir)
	vij := linalg.NewMat(nvir, nvir)
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, ws.bov.Slice(i), ws.bov.Slice(j), 0, vij)
			tij := t.Slice(i*nocc + j)
			for a := 0; a < nvir; a++ {
				for b := 0; b < nvir; b++ {
					tij.Set(a, b, vij.At(a, b)/(eps[i]+eps[j]-eps[nocc+a]-eps[nocc+b]))
				}
			}
		}
	}
	for ij := range nocc * nocc {
		for a := 0; a < nvir; a++ {
			for b := 0; b < nvir; b++ {
				tt.Slice(ij).Set(a, b, 2*t.Slice(ij).At(a, b)-t.Slice(ij).At(b, a))
			}
		}
	}
	gamma = linalg.NewTensor3(nocc, naux, nvir)
	poo, pvv = linalg.NewMat(nocc, nocc), linalg.NewMat(nvir, nvir)
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 1, ws.bov.Slice(j), tt.Slice(i*nocc+j), 1, gamma.Slice(i))
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 2, tt.Slice(i*nocc+j), t.Slice(i*nocc+j), 1, pvv)
		}
	}
	byOcc := func(x *linalg.Tensor3) *linalg.Mat {
		return &linalg.Mat{Rows: nocc, Cols: nocc * nvir * nvir, Data: x.Data}
	}
	linalg.Gemm(linalg.NoTrans, linalg.Trans, -2, byOcc(tt), byOcc(t), 0, poo)
	return t, tt, gamma, poo, pvv
}

// singlePassHessVec is hessVec as four packed GEMMs over all of P and two
// matrix–vector products, with the vo block arranged (b, P, i) for the
// (aj|ib) contraction.
func singlePassHessVec(r *Result, z *linalg.Mat) *linalg.Mat {
	ws := r.ws
	nocc, nvir, naux := r.SCF.NOcc, r.SCF.NVirt(), r.SCF.Aux.N
	eps := r.SCF.Eps
	out := linalg.NewMat(nvir, nocc)
	bvoFlat := ws.bpvo.Flatten()
	u := linalg.NewMat(naux, 1)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 2, bvoFlat, z.Vec(), 0, u)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 2, bvoFlat, u, 0, out.Vec())
	hw := linalg.NewTensor3(nocc, naux, nvir)
	linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, z, ws.bvv.Flatten(), 0, hw.Flatten())
	linalg.Gemm(linalg.Trans, linalg.NoTrans, -1, hw.FlattenRows(), ws.boo.FlattenRows(), 1, out)
	hx := linalg.NewTensor3(nvir, naux, nvir)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, z, ws.bov.Flatten(), 0, hx.Flatten())
	bvo := linalg.NewTensor3(nvir, naux, nocc)
	for p := 0; p < naux; p++ {
		for b := 0; b < nvir; b++ {
			copy(bvo.Slice(b).Row(p), ws.bpvo.Slice(p).Row(b))
		}
	}
	linalg.Gemm(linalg.Trans, linalg.NoTrans, -1, hx.FlattenRows(), bvo.FlattenRows(), 1, out)
	for a := 0; a < nvir; a++ {
		for i := 0; i < nocc; i++ {
			out.Add(a, i, (eps[nocc+a]-eps[i])*z.At(a, i))
		}
	}
	return out
}

type blockCase struct {
	name  string
	basis string
	geom  *molecule.Geometry
	field *integrals.PointCharges
}

// blockCases are the sto-3g trimer (six auxiliary blocks of 69), the same
// trimer in a point-charge field, the dzp dimer (naux 500 in blocks of
// 13, the last one 6 long) and the sto-3g monomer (one block), with the
// default auxiliary basis.
func blockCases() []blockCase {
	field := &integrals.PointCharges{
		Pos: []float64{11, 2, 2, -6, 3, 1, 2, -6, 9},
		Q:   []float64{0.35, -0.3, 0.22},
	}
	return []blockCase{
		{"sto3g-trimer", "sto-3g", molecule.WaterCluster(3), nil},
		{"sto3g-trimer-field", "sto-3g", molecule.WaterCluster(3), field},
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
	ref, err := scf.RHF(c.geom, bs, scf.Options{UseRI: true, EmbedCharges: c.field})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RIMP2(ref, Options{})
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

// The blocked MO blocks, amplitudes, Lagrangian and Hessian-vector
// product against their single-pass bodies.
func TestBatchedDFBlocksMP2Stages(t *testing.T) {
	for _, c := range blockCases() {
		t.Run(c.name, func(t *testing.T) {
			r := c.eval(t)
			ref := r.SCF
			nocc, nvir, naux := ref.NOcc, ref.NVirt(), ref.Aux.N
			if c.name == "sto3g-monomer" && ref.NumBlocks() != 1 {
				t.Fatalf("%d auxiliary blocks, want one", ref.NumBlocks())
			}
			ws := r.buildMOBlocks()
			bmo := singlePassMOBlocks(r)
			got := func(p, q, s int) float64 {
				switch {
				case q < nocc && s < nocc:
					return ws.boo.At(q, p, s)
				case q < nocc:
					return ws.bov.At(q, p, s-nocc)
				case s < nocc:
					return ws.bpvo.At(p, q-nocc, s)
				default:
					return ws.bvv.At(q-nocc, p, s-nocc)
				}
			}
			blocked := linalg.NewTensor3(naux, ref.Bs.N, ref.Bs.N)
			for p := 0; p < naux; p++ {
				for q := 0; q < ref.Bs.N; q++ {
					for s := 0; s < ref.Bs.N; s++ {
						blocked.Set(p, q, s, got(p, q, s))
					}
				}
			}
			checkRel(t, "MO blocks", blocked.Data, bmo.Data)

			r.amplitudes()
			tAmp, tt, gamma, poo, pvv := singlePassAmplitudes(r)
			checkRel(t, "t", ws.t.Data, tAmp.Data)
			checkRel(t, "T̃", ws.tt.Data, tt.Data)
			checkRel(t, "γ", ws.gamma.Data, gamma.Data)
			checkRel(t, "P_oo", ws.poo.Data, poo.Data)
			checkRel(t, "P_vv", ws.pvv.Data, pvv.Data)

			r.lagrangian()
			lamOcc, lamVir := linalg.NewMat(ref.Bs.N, nocc), linalg.NewMat(ref.Bs.N, nvir)
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 4, ws.bov.Flatten(), ws.gamma.Flatten(), 0, lamOcc.RowSpan(0, nocc))
			linalg.Gemm(linalg.NoTrans, linalg.Trans, 4, ws.bvv.Flatten(), ws.gamma.Flatten(), 0, lamOcc.RowSpan(nocc, ref.Bs.N))
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 4, ws.boo.FlattenRows(), ws.gamma.FlattenRows(), 0, lamVir.RowSpan(0, nocc))
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 4, ws.bov.FlattenRows(), ws.gamma.FlattenRows(), 0, lamVir.RowSpan(nocc, ref.Bs.N))
			checkRel(t, "Λ_pi", ws.lamOcc.Data, lamOcc.Data)
			checkRel(t, "Λ_pa", ws.lamVir.Data, lamVir.Data)

			z := testVector(ws, nocc)
			out := linalg.NewMat(nvir, nocc)
			r.hessVec(z, out)
			checkRel(t, "A·z", out.Data, singlePassHessVec(r, z).Data)
		})
	}
}

// The partitions are functions of the shapes alone, so the MP2 energy,
// the gradient's Z-vector iteration count and the SCF iteration count are
// the same at every GOMAXPROCS, the energy to the bit.
func TestBatchedDFBlocksMP2EnergyBits(t *testing.T) {
	if testing.Short() {
		t.Skip("nine sto-3g RI-MP2 gradients")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range blockCases() {
		if c.basis != "sto-3g" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			var e0 float64
			var iters0, ziters0 int
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				r := c.eval(t)
				if _, err := r.Gradient(); err != nil {
					t.Fatal(err)
				}
				if procs == 1 {
					e0, iters0, ziters0 = r.ETotal, r.SCF.Iters, r.ZVecIters
					continue
				}
				if math.Float64bits(r.ETotal) != math.Float64bits(e0) || r.SCF.Iters != iters0 || r.ZVecIters != ziters0 {
					t.Errorf("GOMAXPROCS %d: E %.17g, %d SCF and %d Z-vector iterations; GOMAXPROCS 1: %.17g, %d and %d",
						procs, r.ETotal, r.SCF.Iters, r.ZVecIters, e0, iters0, ziters0)
				}
			}
		})
	}
}
