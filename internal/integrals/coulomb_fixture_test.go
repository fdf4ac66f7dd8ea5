package integrals

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/molecule"
)

// coulombFixture is the recording of the integral kernels that
// testdata/coulomb_kernels.json holds: one SHA-256 of the Float64bits of
// every output, keyed "case, GOMAXPROCS n: kernel". The kernels that take
// the auxiliary basis are keyed "RI kernel".
const coulombFixture = "testdata/coulomb_kernels.json"

// coulombDigests evaluates every four-centre and point-charge kernel, and
// every other kernel that splits its work across goroutines (one-electron,
// two- and three-centre), on the sto-3g water dimer and a dzp water
// monomer (d shells) with a fixed random density, weight matrices and
// tensor and a four-site field, at GOMAXPROCS 1, 3 and 4, and digests
// each output. GOMAXPROCS 3 cuts uneven chunks.
func coulombDigests(t *testing.T) map[string]string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	field := &PointCharges{
		Pos: []float64{4.0, 0.5, -0.3, -3.5, 2.0, 1.0, 0.7, -4.2, 2.5, 1.5, 1.5, 5.0},
		Q:   []float64{0.4, -0.3, 0.25, -0.8},
	}
	out := map[string]string{}
	for _, c := range []struct {
		name, orb string
		g         *molecule.Geometry
	}{
		{"water dimer sto-3g", "sto-3g", molecule.WaterCluster(2)},
		{"water dzp", "dzp", molecule.Water()},
	} {
		bs, err := basis.Build(c.orb, c.g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		dmat := randWeight(rng, bs.N).Sym()
		w := randWeight(rng, bs.N)
		aux := basis.BuildAux(bs, c.g, basis.AuxOptions{})
		zeta := randWeight(rng, aux.N)
		z := randTensor(rng, aux.N, bs.N, bs.N)
		for _, procs := range []int{1, 3, 4} {
			runtime.GOMAXPROCS(procs)
			put := func(kernel string, v []float64) {
				h := sha256.New()
				var b [8]byte
				for _, x := range v {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
				out[fmt.Sprintf("%s, GOMAXPROCS %d: %s", c.name, procs, kernel)] = hex.EncodeToString(h.Sum(nil))
			}
			grad := func() []float64 { return make([]float64, 3*bs.NAtoms) }
			put("FourCenterAll", FourCenterAll(bs))
			sw := SchwarzShellPairs(bs)
			put("SchwarzShellPairs", sw.Data)
			put("FockDirect", FockDirect(bs, dmat, sw, 1e-12).Data)
			g4 := grad()
			FourCenterDerivHF(bs, dmat, sw, 1e-12, 0.5, g4)
			put("FourCenterDerivHF", g4)
			put("Nuclear", Nuclear(bs, c.g).Data)
			gn := grad()
			NuclearDeriv(bs, c.g, w, 0.7, gn)
			put("NuclearDeriv", gn)
			put("PointChargeMatrix", PointChargeMatrix(bs, field).Data)
			ga, gs := grad(), make([]float64, 3*field.N())
			PointChargeDeriv(bs, field, w, -1.1, ga, gs)
			put("PointChargeDeriv bra share", ga)
			put("PointChargeDeriv site share", gs)

			put("Overlap", Overlap(bs).Data)
			put("Kinetic", Kinetic(bs).Data)
			gs1, gt1 := grad(), grad()
			OverlapDeriv(bs, w, 0.6, gs1)
			put("OverlapDeriv", gs1)
			KineticDeriv(bs, w, -0.9, gt1)
			put("KineticDeriv", gt1)
			put("RI TwoCenter", TwoCenter(aux).Data)
			g2 := grad()
			TwoCenterDeriv(aux, zeta, -1.3, g2)
			put("RI TwoCenterDeriv", g2)
			put("RI SchwarzAux", SchwarzAux(aux))
			put("RI ThreeCenterScreened", ThreeCenterScreened(bs, aux, sw, 1e-12).Data)
			g3 := grad()
			ThreeCenterDeriv(bs, aux, z, 0.7, g3)
			put("RI ThreeCenterDeriv", g3)
		}
	}
	return out
}

// The four-centre and point-charge kernels run on the same R-cube
// recursion, Hermite contraction and raise/lower dots as the run-batched
// auxiliary kernels, at one member. Each output element keeps the
// operands and summation order of the dedicated single-primitive kernels
// they ran on before, so every output is bit-identical to the recording
// made with those. The other digests pin each kernel's split of its work:
// the chunks and the order their partial gradients are folded in are a
// function of the shapes and GOMAXPROCS only, so no change to which
// goroutine runs a chunk may move a bit.
func TestCoulombKernelsMatchRecording(t *testing.T) {
	raw, err := os.ReadFile(coulombFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := coulombDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not in %s", k, coulombFixture)
		} else if got[k] != w {
			t.Errorf("%s: digest %.16s…, recorded %.16s…", k, got[k], w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test computes %d", coulombFixture, len(want), len(got))
	}
}
