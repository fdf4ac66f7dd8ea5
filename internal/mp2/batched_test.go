package mp2

import (
	"math"
	"sync"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

type batchedCase struct {
	name  string
	geom  *molecule.Geometry
	field *integrals.PointCharges
}

func batchedCases() []batchedCase {
	return []batchedCase{
		{"monomer", molecule.Water(), nil},
		{"dimer", molecule.WaterDimer(3.0), nil},
		{"embedded", molecule.Water(), &integrals.PointCharges{
			Pos: []float64{3.8, 0.6, -0.4, -3.2, 1.8, 1.1},
			Q:   []float64{0.35, -0.3},
		}},
	}
}

func (c batchedCase) eval() (*Result, error) {
	bs, err := basis.Build("sto-3g", c.geom)
	if err != nil {
		return nil, err
	}
	ref, err := scf.RHF(c.geom, bs, scf.Options{
		UseRI: true, AuxOpts: smallAux, EmbedCharges: c.field, ConvE: 1e-12, ConvErr: 1e-10,
	})
	if err != nil {
		return nil, err
	}
	return RIMP2(ref, Options{})
}

func (c batchedCase) run(t *testing.T) *Result {
	t.Helper()
	r, err := c.eval()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i, v := range a {
		mx = math.Max(mx, math.Abs(v-b[i]))
	}
	return mx
}

func checkClose(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs oracle %d", what, len(got), len(want))
	}
	if d := maxAbsDiff(got, want); !(d <= 1e-11) {
		t.Errorf("%s: batched differs from the per-slice oracle by %.3g (> 1e-11)", what, d)
	}
}

// Every batched stage of the gradient against the per-slice loops it
// replaced: MO blocks, amplitudes (stored T̃), Lagrangian, the general
// AO response operator and the amplitude back-transform.
func TestBatchedGradientStagesMatchOracle(t *testing.T) {
	for _, c := range batchedCases() {
		t.Run(c.name, func(t *testing.T) {
			r := c.run(t)
			ref := r.SCF
			nocc, nvir, naux := ref.NOcc, ref.NVirt(), ref.Aux.N
			ws := r.buildMOBlocks()
			bmo := oracleBmo(r)
			bov := oracleBov(r, bmo)
			checkClose(t, "B^ov block", ws.bov.Data, bov.Data)
			for p := 0; p < naux; p++ {
				for q := 0; q < ref.Bs.N; q++ {
					for s := 0; s < ref.Bs.N; s++ {
						var got float64
						switch {
						case q < nocc && s < nocc:
							got = ws.boo.At(q, p, s)
						case q < nocc:
							got = ws.bov.At(q, p, s-nocc)
						case s < nocc:
							got = ws.bpvo.At(p, q-nocc, s)
						default:
							got = ws.bvv.At(q-nocc, p, s-nocc)
						}
						if d := math.Abs(got - bmo.At(p, q, s)); d > 1e-11 {
							t.Fatalf("MO block (%d|%d,%d) differs from CᵀB_PC by %.3g", p, q, s, d)
						}
					}
				}
			}

			r.amplitudes()
			amps := oracleAmplitudes(r, bov)
			for ij, tij := range amps.tAll {
				checkClose(t, "amplitude block", ws.t.Slice(ij).Data, tij.Data)
				checkClose(t, "stored T̃ block", ws.tt.Slice(ij).Data, tildeOf(tij).Data)
			}
			checkClose(t, "gamma", ws.gamma.Data, amps.gamma.Data)
			checkClose(t, "P_oo", ws.poo.Data, amps.poo.Data)
			checkClose(t, "P_vv", ws.pvv.Data, amps.pvv.Data)

			r.lagrangian()
			lamOcc, lamVir := oracleLagrangian(r, bmo, amps.gamma)
			checkClose(t, "Λ_pi", ws.lamOcc.Data, lamOcc.Data)
			checkClose(t, "Λ_pa", ws.lamVir.Data, lamVir.Data)

			// A general symmetric density: the HF one plus an MO-mixing term.
			m := ref.D.Clone()
			m.AxpyMat(0.3, symOV(ref.CVirt(), testVector(ws, nocc), ref.COcc()))
			got := linalg.NewMat(ref.Bs.N, ref.Bs.N)
			ref.GOperator(m, got)
			checkClose(t, "G[M]", got.Data, oracleGOperator(r, m).Data)

			// Back-transform of a Wᵀ-transformed γ.
			for i := 0; i < nocc; i++ {
				for p := 0; p < naux; p++ {
					for a := 0; a < nvir; a++ {
						ws.gamAux.Set(p, a, i, ws.gamma.At(i, p, a))
					}
				}
			}
			ref.ApplyWT(ws.gamAux, ws.gamT)
			zb := linalg.NewTensor3(naux, ref.Bs.N, ref.Bs.N)
			zo := linalg.NewTensor3(naux, ref.Bs.N, ref.Bs.N)
			r.ampBackTransform(ref.COcc(), ref.CVirt(), zb)
			oracleBackTransform(r, ws.gamT, zo)
			checkClose(t, "amplitude back-transform", zb.Data, zo.Data)
		})
	}
}

// testVector returns a non-trivial nvir × nocc vector: the transposed
// occupied rows of the workspace's Λ_pa.
func testVector(ws *workspace, nocc int) *linalg.Mat {
	return ws.lamVir.RowSpan(0, nocc).T()
}

// The MO-basis Hessian-vector product against the AO round trip
// (symOV → G operator → CᵀXC) it replaced.
func TestBatchedHessVecMatchesOracle(t *testing.T) {
	for _, c := range batchedCases() {
		t.Run(c.name, func(t *testing.T) {
			r := c.run(t)
			ws := r.buildMOBlocks()
			r.amplitudes()
			r.lagrangian()
			z := testVector(ws, r.SCF.NOcc)
			out := linalg.NewMat(z.Rows, z.Cols)
			r.hessVec(z, out)
			checkClose(t, "A·z", out.Data, oracleHessVec(r, z).Data)
		})
	}
}

// The preconditioned solve must reach zvecTol in strictly fewer
// iterations than plain CG and land on the same z.
func TestZVectorPreconditionedBeatsPlainCG(t *testing.T) {
	r := batchedCases()[1].run(t)
	if _, err := r.Gradient(); err != nil {
		t.Fatal(err)
	}
	ws := r.ws
	want, plainIters, err := oraclePlainCG(r, ws.theta)
	if err != nil {
		t.Fatal(err)
	}
	if r.ZVecIters <= 0 || r.ZVecIters >= plainIters {
		t.Errorf("preconditioned CG took %d iterations, plain CG %d: want strictly fewer", r.ZVecIters, plainIters)
	}
	if d := maxAbsDiff(ws.z.Data, want.Data); d > 1e-9 {
		t.Errorf("preconditioned z differs from plain-CG z by %.3g (> 1e-9)", d)
	}
	// The residual the solve stopped at, recomputed through the oracle.
	res := ws.theta.Clone()
	res.AxpyMat(-1, oracleHessVec(r, ws.z))
	norm0 := math.Sqrt(linalg.Dot(ws.theta, ws.theta))
	if rn := res.FrobeniusNorm(); rn > 10*zvecTol*math.Max(1, norm0) {
		t.Errorf("‖Θ − A z‖ = %.3g after the solve reported convergence", rn)
	}
	t.Logf("water dimer, %d-dimensional ov space: %d preconditioned vs %d plain iterations",
		len(ws.z.Data), r.ZVecIters, plainIters)
}

// Two evaluations on two goroutines own two workspaces: under -race this
// finds any scratch shared between Results, and the gradients must equal
// the ones computed one at a time.
func TestBatchedConcurrentEvaluations(t *testing.T) {
	cases := batchedCases()[:2]
	serial := make([][]float64, len(cases))
	for i, c := range cases {
		g, err := c.run(t).Gradient()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = g
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		got := make([][]float64, len(cases))
		errs := make([]error, len(cases))
		for i, c := range cases {
			wg.Add(1)
			go func(i int, c batchedCase) {
				defer wg.Done()
				r, err := c.eval()
				if err == nil {
					got[i], err = r.Gradient()
				}
				errs[i] = err
			}(i, c)
		}
		wg.Wait()
		for i := range cases {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if d := maxAbsDiff(got[i], serial[i]); d > 1e-10 {
				t.Errorf("%s: concurrent gradient differs from the serial one by %.3g", cases[i].name, d)
			}
		}
	}
}
