package fragmd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"github.com/fragmd/fragmd"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// -update regenerates the golden files instead of comparing:
//
//	go test -run Golden -update .
var update = flag.Bool("update", false, "rewrite golden trajectory files")

// Golden-trajectory regression tests: the example workloads are run at
// reduced size and compared against committed JSON. Values are stored
// as shortest round-trip decimal strings (strconv 'g' −1), so a golden
// file records every bit of the run that wrote it — but the comparison
// is by tolerance, not by bytes: structure, keys, counts and step
// indices must match exactly, numeric leaves within
//
//   - static energies (single points, MBE sums, dimer ΔEs, cell edges):
//     |Δ| ≤ 1e-9 Ha;
//   - gradients, embedding charges and trajectory energies:
//     |Δ| ≤ 1e-8 + 1e-8·|golden|.
//
// The bounds sit far above what a libm or toolchain difference does to
// these numbers (a gradient component that is analytically zero comes
// out as −1.41e-12 on one Go release and −1.37e-12 on another, and the
// integrator carries that to ~4e-10 Ha in a step-1 total energy) and
// far below anything a physics change produces. Legitimate numerical
// changes inside the bounds need no action; larger ones are adopted
// explicitly with -update.
//
// The runs still pin what can be pinned: one worker (a single
// completion order for the gradient accumulation), assembly microkernel
// off, fixed seeds. DESIGN.md §9 has the full determinism contract.

// fnum is a float64 in JSON with all its bits.
type fnum string

func num(v float64) fnum { return fnum(strconv.FormatFloat(v, 'g', -1, 64)) }

type goldenStep struct {
	Etot fnum `json:"etot"`
	Epot fnum `json:"epot"`
}

type goldenContribution struct {
	Key    string `json:"key"`
	DeltaE fnum   `json:"delta_e_ha"`
}

type goldenQuickstart struct {
	System      string               `json:"system"`
	NPolymers   int                  `json:"n_polymers"`
	MBEEnergy   fnum                 `json:"mbe_energy_ha"`
	Supersystem fnum                 `json:"supersystem_energy_ha"`
	Dimers      []goldenContribution `json:"dimer_deltas"`
	Trajectory  []goldenStep         `json:"trajectory"`
}

type goldenUrea struct {
	System   string `json:"system"`
	Energy   fnum   `json:"rimp2_energy_ha"`
	Gradient []fnum `json:"gradient_ha_bohr"`
}

// withDeterministicKernels pins the GEMM engine for the duration of a
// golden run: the assembly microkernel off — its FMA contraction changes
// f64 rounding relative to the portable kernel the goldens were recorded
// with. The asm path is covered separately by the tolerance test below.
func withDeterministicKernels(t *testing.T, fn func()) {
	t.Helper()
	wasAsm := linalg.SetAsmEnabled(false)
	defer linalg.SetAsmEnabled(wasAsm)
	fn()
}

// compareGolden marshals got, then either rewrites the golden file
// (-update) or compares it with the committed one under the tolerances
// stated at the top of this file.
func compareGolden(t *testing.T, name string, got interface{}) {
	t.Helper()
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	for _, d := range diffGolden(t, blob, want) {
		t.Errorf("%s: %s", path, d)
	}
	if t.Failed() {
		t.Logf("if the change is intentional, regenerate with: go test -run Golden -update .")
	}
}

// toleranced names the golden fields whose numeric leaves are compared
// under the mixed 1e-8 absolute + 1e-8 relative bound; every other
// numeric leaf is a static energy held to 1e-9 absolute.
var toleranced = map[string]bool{
	"trajectory":          true,
	"gradient_ha_bohr":    true,
	"embedding_charges_e": true,
}

// diffGolden decodes two golden documents and lists their differences:
// keys, lengths, counts and non-numeric strings compare exactly, fnum
// leaves by tolerance.
func diffGolden(t *testing.T, got, want []byte) []string {
	t.Helper()
	decode := func(blob []byte) interface{} {
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.UseNumber() // counts stay exact integers
		var v interface{}
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	var diffs []string
	var walk func(path string, loose bool, g, w interface{})
	walk = func(path string, loose bool, g, w interface{}) {
		switch wv := w.(type) {
		case map[string]interface{}:
			gv, ok := g.(map[string]interface{})
			if !ok || len(gv) != len(wv) {
				diffs = append(diffs, fmt.Sprintf("%s: got %v, want an object with %d keys", path, g, len(wv)))
				return
			}
			for k, wk := range wv {
				gk, ok := gv[k]
				if !ok {
					diffs = append(diffs, fmt.Sprintf("%s: key %q missing", path, k))
					continue
				}
				walk(path+"."+k, loose || toleranced[k], gk, wk)
			}
		case []interface{}:
			gv, ok := g.([]interface{})
			if !ok || len(gv) != len(wv) {
				diffs = append(diffs, fmt.Sprintf("%s: got %v, want an array of %d", path, g, len(wv)))
				return
			}
			for i := range wv {
				walk(fmt.Sprintf("%s[%d]", path, i), loose, gv[i], wv[i])
			}
		case string:
			gs, ok := g.(string)
			wf, werr := strconv.ParseFloat(wv, 64)
			gf, gerr := strconv.ParseFloat(gs, 64)
			if !ok || werr != nil || gerr != nil {
				if !ok || gs != wv {
					diffs = append(diffs, fmt.Sprintf("%s: got %v, want %q", path, g, wv))
				}
				return
			}
			tol := 1e-9
			if loose {
				tol = 1e-8 + 1e-8*math.Abs(wf)
			}
			if d := math.Abs(gf - wf); !(d <= tol) {
				diffs = append(diffs, fmt.Sprintf("%s: got %s, want %s (|Δ| = %.3g > %.3g)", path, gs, wv, d, tol))
			}
		default: // json.Number counts, bool, null
			if g != w {
				diffs = append(diffs, fmt.Sprintf("%s: got %v, want %v", path, g, w))
			}
		}
	}
	walk("$", false, decode(got), decode(want))
	sort.Strings(diffs)
	return diffs
}

// The comparer itself: tolerances by field, exactness everywhere else.
func TestGoldenComparerTolerances(t *testing.T) {
	doc := func(energy, etot, grad string, n int, key string) []byte {
		return []byte(fmt.Sprintf(`{"system":"s","n_polymers":%d,"mbe_energy_ha":%q,
			"dimer_deltas":[{"key":%q,"delta_e_ha":"0.5"}],
			"gradient_ha_bohr":[%q,"0"],"trajectory":[{"etot":%q,"epot":"-1"}]}`, n, energy, key, grad, etot))
	}
	base := doc("-224.98679089473234", "-224.98003106180977", "-1.37e-12", 7, "0-1")
	for _, c := range []struct {
		name  string
		other []byte
		diffs int
	}{
		{"identical", base, 0},
		{"static energy within 1e-9", doc("-224.98679089513234", "-224.98003106180977", "-1.37e-12", 7, "0-1"), 0},
		{"static energy beyond 1e-9", doc("-224.98679089273234", "-224.98003106180977", "-1.37e-12", 7, "0-1"), 1},
		{"toolchain noise in a zero gradient", doc("-224.98679089473234", "-224.98003106180977", "-1.41e-12", 7, "0-1"), 0},
		{"gradient beyond 1e-8", doc("-224.98679089473234", "-224.98003106180977", "3e-8", 7, "0-1"), 1},
		{"trajectory energy within 1e-8 relative", doc("-224.98679089473234", "-224.98003206180977", "-1.37e-12", 7, "0-1"), 0},
		{"trajectory energy beyond", doc("-224.98679089473234", "-224.98004106180977", "-1.37e-12", 7, "0-1"), 1},
		{"count differs", doc("-224.98679089473234", "-224.98003106180977", "-1.37e-12", 8, "0-1"), 1},
		{"key differs", doc("-224.98679089473234", "-224.98003106180977", "-1.37e-12", 7, "0-2"), 1},
		{"NaN never passes", doc("NaN", "-224.98003106180977", "-1.37e-12", 7, "0-1"), 1},
	} {
		if d := diffGolden(t, c.other, base); len(d) != c.diffs {
			t.Errorf("%s: %d differences, want %d: %v", c.name, len(d), c.diffs, d)
		}
	}
	short := []byte(`{"system":"s","n_polymers":7}`)
	if d := diffGolden(t, short, base); len(d) == 0 {
		t.Error("a document with missing keys compared equal")
	}
}

// The quickstart example's workload: MBE3/RI-MP2 on a 3-water cluster
// (exact vs the supersystem), the dimer ΔEs, and 3 steps of
// asynchronous NVE AIMD.
func TestGoldenQuickstartTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 trajectory is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterCluster(3)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewRIMP2Potential("sto-3g", false)
		res, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		eSuper, _, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenQuickstart{
			System:      "water cluster n=3, MBE3/RI-MP2/STO-3G",
			NPolymers:   len(res.Terms.All()),
			MBEEnergy:   num(res.Energy),
			Supersystem: num(eSuper),
		}
		for i, d := range res.Terms.Dimers {
			g.Dimers = append(g.Dimers, goldenContribution{Key: d.Key(), DeltaE: num(res.DeltaDimer[i])})
		}
		// Sorted by key, as the file was written.
		sort.Slice(g.Dimers, func(a, b int) bool { return g.Dimers[a].Key < g.Dimers[b].Key })

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(150, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_quickstart.json", g)
	})
}

type goldenWaterBox struct {
	System     string       `json:"system"`
	CellBohr   []fnum       `json:"cell_bohr"`
	NMonomers  int          `json:"n_monomers"`
	NDimers    int          `json:"n_dimers"`
	MBE2Energy fnum         `json:"mbe2_lj_energy_ha"`
	Trajectory []goldenStep `json:"trajectory"`
}

// The water_box example's workload: periodic MBE2/LJ on a 3×3×3 water
// lattice with minimum-image boundaries and a dimer cutoff under half
// the box edge, plus 10 steps of NVE MD. This is
// the regression anchor for the whole PBC path — cell parsing, min-
// image dimer selection through the cell list, image-shifted fragment
// extraction, and periodic LJ forces all feed these numbers. (LJ is
// cheap, so this golden also runs under -short.)
func TestGoldenWaterBoxTrajectory(t *testing.T) {
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterBox(3, 3, 3, 1)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{
			MaxOrder:    2,
			DimerCutoff: 4.0 * chem.BohrPerAngstrom, // < L/2 = 4.66 Å
		})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewLennardJonesPotential()
		res, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		terms := frag.Terms()
		g := goldenWaterBox{
			System:     "water box 3x3x3, periodic MBE2/LJ, dimer cut 4 Å",
			NMonomers:  len(terms.Monomers),
			NDimers:    len(terms.Dimers),
			MBE2Energy: num(res.Energy),
		}
		for _, l := range sys.Cell.L {
			g.CellBohr = append(g.CellBohr, num(l))
		}

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(150, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_water_box.json", g)
	})
}

type goldenEmbedded struct {
	System       string       `json:"system"`
	NPolymers    int          `json:"n_polymers"`
	VacuumMBE2   fnum         `json:"vacuum_mbe2_ha"`
	EmbeddedMBE2 fnum         `json:"embedded_mbe2_ha"`
	Supersystem  fnum         `json:"supersystem_energy_ha"`
	SCCRounds    int          `json:"scc_rounds"`
	Charges      []fnum       `json:"embedding_charges_e"`
	Trajectory   []goldenStep `json:"trajectory"`
}

// The water_embedded example's workload: EE-MBE2/RI-HF on a 4-water
// cluster (vacuum vs embedded vs supersystem, the phase-1 charges) and
// 3 steps of embedded NVE AIMD.
func TestGoldenEmbeddedWaterTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("embedded RI-HF trajectory is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterCluster(4)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{MaxOrder: 2})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewHFPotential("sto-3g", true)
		eo := fragmd.EmbedOptions{SCC: 1, Damping: 0.3}
		super, _, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		vac, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := frag.ComputeEmbedded(eval, nil, eo)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenEmbedded{
			System:       "water cluster n=4, EE-MBE2/RI-HF/STO-3G",
			NPolymers:    len(emb.Terms.All()),
			VacuumMBE2:   num(vac.Energy),
			EmbeddedMBE2: num(emb.Energy),
			Supersystem:  num(super),
			SCCRounds:    emb.SCCRounds,
		}
		for _, q := range emb.Charges {
			g.Charges = append(g.Charges, num(q))
		}

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Embed: &eo,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(120, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_water_embedded.json", g)
	})
}

// The urea_crystal example's workload at regression-test size: the
// r=3 Å sphere is the single central molecule, whose RI-MP2 energy and
// full analytic gradient are locked. (A urea *dimer*
// evaluation runs ~2 minutes in the pure-Go kernels, so the example's
// ΔE analysis is exercised at golden precision on the water dimers
// above instead.)
func TestGoldenUreaCrystalEnergies(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 on urea is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.UreaCrystalSphere(3.0)
		eval := fragmd.NewRIMP2Potential("sto-3g", false)
		e, grad, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenUrea{
			System: "urea crystal sphere r=3.0 Å (1 molecule), RI-MP2/STO-3G",
			Energy: num(e),
		}
		for _, v := range grad {
			g.Gradient = append(g.Gradient, num(v))
		}
		compareGolden(t, "golden_urea_crystal.json", g)
	})
}

// goldenMBEEnergy reads the committed quickstart golden and returns
// its MBE energy as a float64.
func goldenMBEEnergy(t *testing.T) float64 {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_quickstart.json"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var g goldenQuickstart
	if err := json.Unmarshal(blob, &g); err != nil {
		t.Fatal(err)
	}
	e, err := strconv.ParseFloat(string(g.MBEEnergy), 64)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickstartMBE recomputes the quickstart MBE energy with the current
// kernel configuration.
func quickstartMBE(t *testing.T) float64 {
	t.Helper()
	sys := fragmd.WaterCluster(3)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := frag.Compute(&potential.RIMP2{Basis: "sto-3g"})
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy
}

// The assembly microkernel is FMA-contracted, so it cannot match the
// portable goldens bit-for-bit — but the converged MBE energy must
// agree to well below chemical meaning. Pins that enabling asm
// perturbs physics only at the rounding level.
func TestGoldenQuickstartAsmTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 MBE is slow; run without -short")
	}
	if !linalg.AsmAvailable() {
		t.Skip("no assembly microkernel on this machine")
	}
	prev := linalg.SetAsmEnabled(true)
	defer linalg.SetAsmEnabled(prev)
	want := goldenMBEEnergy(t)
	got := quickstartMBE(t)
	if d := got - want; d > 1e-7 || d < -1e-7 {
		t.Fatalf("asm-kernel MBE energy %.12f vs golden %.12f (|Δ|=%.3g > 1e-7 Ha)", got, want, d)
	}
}
