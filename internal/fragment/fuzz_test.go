package fragment

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/molecule"
)

// FuzzMBECoefficients drives the MBE term enumeration and the shared
// scheduling-graph construction across arbitrary cutoffs and
// fragmentation sizes, asserting the structural invariants that make
// the truncated expansion and its task graph correct:
//
//   - size additivity: Σ_p coeff(p)·order(p) equals the monomer count,
//     so any per-monomer-additive property is reproduced exactly by the
//     weighted sum (the paper's Eq. 2 telescopes);
//   - extra dimers (evaluated only as trimer constituents) carry
//     strictly negative coefficients;
//   - every enumerated trimer carries coefficient +1;
//   - the term graph is well formed: every polymer in All() has a
//     distinct sorted member set, monomer m sits at index m, every
//     sub-polymer index resolves to the polymer with the matching
//     member subset, the coefficient slice agrees with the
//     Coefficients() map view, and the pair-inclusion weights equal a
//     brute recomputation from the members;
//   - the coord.Graph built from the fragmentation (exactly as the
//     live engine builds it) validates, and its monomer→polymer
//     reverse index is consistent with the touch sets.
//
// The workload is a β-fibril analogue, so covalent boundaries and
// H-cap dependency sets (TouchSet) are exercised, not just molecular
// clusters.
func FuzzMBECoefficients(f *testing.F) {
	f.Add(uint8(3), 22.0, 9.0, uint8(3))
	f.Add(uint8(1), 0.0, 0.0, uint8(2))
	f.Add(uint8(7), -5.0, 1e300, uint8(3))
	f.Add(uint8(4), 7.5, 7.5, uint8(200))
	f.Add(uint8(2), math.NaN(), 9.0, uint8(2))
	f.Add(uint8(5), 8.0, 14.0, uint8(3)) // dimer cut < trimer cut: extra dimers
	f.Fuzz(func(t *testing.T, nRaw uint8, dimerCut, trimerCut float64, orderRaw uint8) {
		strands := int(nRaw)%2 + 1
		residues := int(nRaw/2)%3 + 2
		g, monomers := molecule.BetaFibril(strands, residues)
		frag, err := New(g, monomers, Options{
			DimerCutoff:  dimerCut,
			TrimerCutoff: trimerCut,
			MaxOrder:     2 + int(orderRaw)%2,
		})
		if !(dimerCut >= 0) || !(trimerCut >= 0) {
			// Negative and NaN cutoffs are invalid input, not a
			// degenerate expansion: New must reject them loudly.
			if err == nil {
				t.Fatalf("negative or NaN cutoffs (%g/%g) accepted", dimerCut, trimerCut)
			}
			return
		}
		if err != nil {
			t.Fatalf("fibril fragmentation rejected: %v", err)
		}
		terms := frag.Terms()
		all := terms.All()
		nMono := len(frag.Monomers)
		var weighted float64
		for i, p := range all {
			weighted += terms.Coeff(i) * float64(p.Order())
		}
		if weighted != float64(nMono) {
			t.Errorf("Σ coeff·order = %g, want monomer count %d (cutoffs %g/%g)",
				weighted, nMono, dimerCut, trimerCut)
		}
		nd := nMono + len(terms.Dimers)
		for x, d := range terms.ExtraDimers {
			if c := terms.Coeff(nd + x); c >= 0 {
				t.Errorf("extra dimer %s has coefficient %g, want strictly negative", d.Key(), c)
			}
		}
		t0 := len(all) - len(terms.Trimers)
		for x, tr := range terms.Trimers {
			if c := terms.Coeff(t0 + x); c != 1 {
				t.Errorf("trimer %s has coefficient %g, want 1", tr.Key(), c)
			}
		}
		checkTermGraph(t, terms)

		// The scheduling graph, built exactly as the live engine builds
		// it (sched.New), must validate and round-trip its reverse
		// index.
		members := make([][]int32, len(all))
		touch := make([][]int32, len(all))
		for pi, p := range all {
			ms := make([]int32, len(p.Monomers))
			for i, m := range p.Monomers {
				ms[i] = int32(m)
			}
			sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
			members[pi] = ms
			for _, m := range frag.TouchSet(p) {
				touch[pi] = append(touch[pi], int32(m))
			}
			// A polymer always touches its own members.
			inTouch := map[int32]bool{}
			for _, m := range touch[pi] {
				inTouch[m] = true
			}
			for _, m := range ms {
				if !inTouch[m] {
					t.Fatalf("polymer %s touch set %v misses its own member %d", p.Key(), touch[pi], m)
				}
			}
		}
		_, dist := coord.Priorities(nMono, members, frag.Centroid, frag.Geom.Centroid(), -1)
		graph, err := coord.NewGraph(nMono, members, touch, dist)
		if err != nil {
			t.Fatalf("graph construction rejected a valid fragmentation: %v", err)
		}
		var touchTotal, reverseTotal int
		for _, ts := range touch {
			touchTotal += len(ts)
		}
		for _, ps := range graph.Touching {
			reverseTotal += len(ps)
		}
		if touchTotal != reverseTotal {
			t.Errorf("reverse index has %d edges, touch sets %d", reverseTotal, touchTotal)
		}
	})
}

// The full (cutoff-free) MBE3 expansion carries the textbook inclusion–
// exclusion coefficients: this pins the closed form the fuzz property
// implies.
func TestCoefficientsFullExpansion(t *testing.T) {
	g := molecule.WaterCluster(4)
	frag, err := ByMolecule(g, 3, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	terms := frag.Terms()
	n := 4.0
	// Monomer: 1 − (n−1) dimers + C(n−1,2) trimers.
	wantMono := 1 - (n - 1) + (n-1)*(n-2)/2
	// Dimer: 1 − (n−2) containing trimers.
	wantDimer := 1 - (n - 2)
	for i, m := range terms.Monomers {
		if c := terms.Coeff(i); c != wantMono {
			t.Errorf("monomer %s coefficient %g, want %g", m.Key(), c, wantMono)
		}
	}
	for x, d := range terms.Dimers {
		if c := terms.Coeff(len(terms.Monomers) + x); c != wantDimer {
			t.Errorf("dimer %s coefficient %g, want %g", d.Key(), c, wantDimer)
		}
	}
	if len(terms.ExtraDimers) != 0 {
		t.Errorf("full expansion has %d extra dimers, want 0", len(terms.ExtraDimers))
	}
}

// checkTermGraph asserts the index structure of the MBE term graph
// against its member sets: the invariants every reader of the graph
// (serial assembly, engine topology, pair inclusion) relies on.
func checkTermGraph(t *testing.T, terms *Terms) {
	t.Helper()
	all := terms.All()
	nMono := len(terms.Monomers)
	if want := nMono + len(terms.Dimers) + len(terms.ExtraDimers) + len(terms.Trimers); len(all) != want {
		t.Fatalf("All() has %d polymers, want %d", len(all), want)
	}
	index := map[string]int{}
	for i, p := range all {
		if !slices.IsSorted(p.Monomers) {
			t.Fatalf("polymer %d members %v not sorted", i, p.Monomers)
		}
		if j, dup := index[p.Key()]; dup {
			t.Fatalf("member set %v enumerated twice (indices %d and %d)", p.Monomers, j, i)
		}
		index[p.Key()] = i
		if i < nMono && (p.Order() != 1 || p.Monomers[0] != i) {
			t.Fatalf("index %d holds %v, want monomer %d", i, p.Monomers, i)
		}
	}
	// A dimer's sub-polymers are its monomers, at the indices equal to
	// their monomer numbers (checked above); a trimer's dimers resolve
	// through triDimers.
	if len(terms.triDimers) != len(terms.Trimers) {
		t.Fatalf("%d trimer sub-polymer entries for %d trimers", len(terms.triDimers), len(terms.Trimers))
	}
	for x, tr := range terms.Trimers {
		m := tr.Monomers
		want := [3][]int{{m[0], m[1]}, {m[0], m[2]}, {m[1], m[2]}}
		for k, d := range terms.triDimers[x] {
			if d < nMono || d >= len(all)-len(terms.Trimers) || !slices.Equal(all[d].Monomers, want[k]) {
				t.Fatalf("trimer %s sub-dimer %d: index %d, want the dimer %v", tr.Key(), k, d, want[k])
			}
		}
	}
	coeff := terms.Coefficients()
	if len(coeff) != len(all) {
		t.Fatalf("Coefficients() has %d entries for %d polymers", len(coeff), len(all))
	}
	for i, p := range all {
		if c, ok := coeff[p.Key()]; !ok || c != terms.Coeff(i) {
			t.Fatalf("polymer %s: Coeff %g, Coefficients() %g", p.Key(), terms.Coeff(i), c)
		}
	}
	s := terms.PairInclusion()
	for i := 0; i < nMono; i++ {
		for j := i + 1; j < nMono; j++ {
			var want float64
			for pi, p := range all {
				if slices.Contains(p.Monomers, i) && slices.Contains(p.Monomers, j) {
					want += terms.Coeff(pi)
				}
			}
			if s[i*nMono+j] != want {
				t.Fatalf("s[%d,%d] = %g, brute recomputation %g", i, j, s[i*nMono+j], want)
			}
		}
	}
}
