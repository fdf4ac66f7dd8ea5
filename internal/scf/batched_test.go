package scf

import (
	"math"
	"sync"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

type batchedCase struct {
	name  string
	basis string
	geom  *molecule.Geometry
	field *integrals.PointCharges
}

// batchedCases are sto-3g water (nbf 7, nocc 5) with and without a field,
// its dimer, and dzp water (nbf 25, nocc 5), where the occupied-block
// exchange intermediates fill only part of each scratch slab.
func batchedCases() []batchedCase {
	return []batchedCase{
		{"monomer", "sto-3g", molecule.Water(), nil},
		{"dimer", "sto-3g", molecule.WaterDimer(3.0), nil},
		{"embedded", "sto-3g", molecule.Water(), embedField()},
		{"dzp-monomer", "dzp", molecule.Water(), nil},
	}
}

func (c batchedCase) eval() (*Result, error) {
	bs, err := basis.Build(c.basis, c.geom)
	if err != nil {
		return nil, err
	}
	return RHF(c.geom, bs, Options{
		UseRI: true, AuxOpts: basis.AuxOptions{PerL: []int{5, 4, 3}}, EmbedCharges: c.field,
	})
}

func checkClose(t *testing.T, what string, got, want []float64) {
	t.Helper()
	var mx float64
	for i, v := range got {
		mx = math.Max(mx, math.Abs(v-want[i]))
	}
	if !(mx <= 1e-11) {
		t.Errorf("%s: batched differs from the per-slice oracle by %.3g (> 1e-11)", what, mx)
	}
}

// The flattened Fock build against the per-slice loop, on the converged
// density and on a perturbed (non-idempotent-factor) occupied block.
func TestBatchedRIFockMatchesOracle(t *testing.T) {
	for _, c := range batchedCases() {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.eval()
			if err != nil {
				t.Fatal(err)
			}
			co := r.COcc()
			checkClose(t, "F[D]", r.fock(r.H, r.D, co).Data, oracleRIFock(r, r.D, co).Data)

			for i := range co.Data {
				co.Data[i] *= 1 + 0.01*math.Sin(float64(i))
			}
			d := densityFromC(co, r.NOcc)
			checkClose(t, "F[D'] after reuse", r.fock(r.H, d, co).Data, oracleRIFock(r, d, co).Data)
		})
	}
}

// symPart symmetrises every n × n block of data in place.
func symPart(data []float64, n int) []float64 {
	for off := 0; off < len(data); off += n * n {
		(&linalg.Mat{Rows: n, Cols: n, Data: data[off : off+n*n]}).Sym()
	}
	return data
}

// The flattened separable coefficients against the per-slice loop, for
// the HF density and for a general symmetric first density, called
// twice on one Result so the second call runs on used scratch. The
// batched routine leaves the exchange terms unsymmetrised; the derivative
// integrals see only the symmetric parts, which is what must agree.
func TestBatchedSeparableCoeffsMatchOracle(t *testing.T) {
	for _, c := range batchedCases() {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.eval()
			if err != nil {
				t.Fatal(err)
			}
			nbf, naux := r.Bs.N, r.Aux.N
			da := r.EnergyWeightedDensity()
			da.AxpyMat(0.5, r.D)
			for _, pair := range []struct {
				da     *linalg.Mat
				factor float64
			}{{r.D, 0.5}, {da, 1.0}} {
				zb, cb := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
				zo, co := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
				r.AddRISeparableCoeffs(pair.da, pair.factor, zb, cb)
				oracleSeparableCoeffs(r, pair.da, r.D, pair.factor, zo, co)
				checkClose(t, "Z_Pμν", symPart(zb.Data, nbf), zo.Data)
				checkClose(t, "ζ_PQ", symPart(cb.Data, naux), co.Data)
			}
		})
	}
}

// The separable coefficients are linear in their density: the MP2
// gradient relies on this to fold the HF term (D, ½) and the
// orbital-response coupling (X, 1) into one call (½D + X, 1). Checked
// elementwise on the raw accumulators, for a fixed symmetric X, relative
// to the largest entry: the exchange and Coulomb products cancel, so
// rounding reaches ~1e-12 of it (1.2e-11 on the monomer's ζ, whose
// largest entry is 11.5).
func TestSeparableCoeffsLinearInFirstDensity(t *testing.T) {
	for _, c := range batchedCases()[:2] {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.eval()
			if err != nil {
				t.Fatal(err)
			}
			nbf, naux := r.Bs.N, r.Aux.N
			x := linalg.NewMat(nbf, nbf)
			for i := 0; i < nbf; i++ {
				for j := 0; j < nbf; j++ {
					x.Set(i, j, 0.1*math.Sin(1+float64(i+j)+0.3*float64(i*j)))
				}
			}
			z2, zeta2 := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
			r.AddRISeparableCoeffs(r.D, 0.5, z2, zeta2)
			r.AddRISeparableCoeffs(x, 1, z2, zeta2)
			folded := x.Clone()
			folded.AxpyMat(0.5, r.D)
			z1, zeta1 := linalg.NewTensor3(naux, nbf, nbf), linalg.NewMat(naux, naux)
			r.AddRISeparableCoeffs(folded, 1, z1, zeta1)
			for _, acc := range []struct {
				name            string
				twoCall, folded []float64
			}{{"zAcc", z2.Data, z1.Data}, {"zetaAcc", zeta2.Data, zeta1.Data}} {
				var mx, scale float64
				for i, v := range acc.twoCall {
					mx = math.Max(mx, math.Abs(v-acc.folded[i]))
					scale = math.Max(scale, math.Abs(acc.folded[i]))
				}
				if !(mx <= 5e-12*scale) {
					t.Errorf("%s: two-call form differs from the folded call by %.3g (> 5e-12 × max|entry| = %.3g)", acc.name, mx, 5e-12*scale)
				}
			}
		})
	}
}

// Two SCF + gradient evaluations on two goroutines own two workspaces:
// under -race this finds any scratch shared between Results, and the
// gradients must equal the ones computed one at a time.
func TestBatchedConcurrentEvaluations(t *testing.T) {
	cases := batchedCases()[:2]
	serial := make([][]float64, len(cases))
	for i, c := range cases {
		r, err := c.eval()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r.Gradient()
	}
	var wg sync.WaitGroup
	got := make([][]float64, len(cases))
	errs := make([]error, len(cases))
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c batchedCase) {
			defer wg.Done()
			r, err := c.eval()
			if err == nil {
				got[i] = r.Gradient()
			}
			errs[i] = err
		}(i, c)
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for k, v := range got[i] {
			if d := math.Abs(v - serial[i][k]); d > 1e-10 {
				t.Errorf("%s: concurrent gradient component %d differs from the serial one by %.3g", c.name, k, d)
			}
		}
	}
}
