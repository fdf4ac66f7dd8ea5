package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/fragmd/fragmd/internal/coord"
)

func TestWorkloadEnumeration(t *testing.T) {
	w := UreaWorkload(400, 4, 15.3, 15.3)
	m1, m2, m3 := w.CountByOrder()
	if m1 != 100 {
		t.Fatalf("monomers = %d, want 100", m1)
	}
	if m2 == 0 || m3 == 0 {
		t.Fatalf("expected dimers and trimers, got %d / %d", m2, m3)
	}
	// Electron accounting: 32 e− per urea molecule.
	if w.Electrons() != 400*32 {
		t.Errorf("electrons = %d, want %d", w.Electrons(), 400*32)
	}
	// Every trimer's pairwise distances must respect the cutoff.
	for _, p := range w.Polymers {
		if p.Order != 3 {
			continue
		}
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				d := dist3(w.Monomers[p.M[a]].Centroid, w.Monomers[p.M[b]].Centroid)
				if d > 15.3+1e-9 {
					t.Fatalf("trimer pair distance %.2f beyond cutoff", d)
				}
			}
		}
	}

	// The cell list selects exactly the polymers a direct scan of the
	// centroids selects.
	for name, w := range map[string]*Workload{"urea": w, "fibril": FibrilWorkload(2, 5, 10, 8)} {
		if got, want := sortedPolymers(w.Polymers), scanPolymers(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cell list enumerated %d polymers, direct scan %d", name, len(got), len(want))
		}
	}
	// A non-positive trimer cutoff means no trimers.
	if _, m2, m3 := UreaWorkload(300, 1, 6.0, 0).CountByOrder(); m2 == 0 || m3 != 0 {
		t.Errorf("trimerCut 0: %d dimers, %d trimers; want some dimers and no trimers", m2, m3)
	}
}

// scanPolymers enumerates w's polymers by the O(N³) direct scan of the
// monomer centroids, in lexicographic order within each order.
func scanPolymers(w *Workload) []Polymer {
	c := func(i int) [3]float64 { return w.Monomers[i].Centroid }
	n := len(w.Monomers)
	var out []Polymer
	for i := 0; i < n; i++ {
		out = append(out, Polymer{M: [3]int32{int32(i)}, Order: 1})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist3(c(i), c(j)) <= w.DimerCut {
				out = append(out, Polymer{M: [3]int32{int32(i), int32(j)}, Order: 2})
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist3(c(i), c(j)) > w.TrimerCut {
				continue
			}
			for k := j + 1; k < n; k++ {
				if dist3(c(i), c(k)) <= w.TrimerCut && dist3(c(j), c(k)) <= w.TrimerCut {
					out = append(out, Polymer{M: [3]int32{int32(i), int32(j), int32(k)}, Order: 3})
				}
			}
		}
	}
	return sortedPolymers(out)
}

// sortedPolymers returns a copy of ps ordered by (order, members).
func sortedPolymers(ps []Polymer) []Polymer {
	out := append([]Polymer(nil), ps...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Order != out[b].Order {
			return out[a].Order < out[b].Order
		}
		for k := 0; k < 3; k++ {
			if out[a].M[k] != out[b].M[k] {
				return out[a].M[k] < out[b].M[k]
			}
		}
		return false
	})
	return out
}

func dist3(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// The paper's 63,854-molecule system yields >2.8 M polymers at 15.3 Å
// cutoffs; our lattice workload must land in the same regime.
func TestMillionElectronPolymerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration")
	}
	w := UreaWorkload(63854, 4, 15.3, 15.3)
	if e := w.Electrons(); e != 2043328 {
		t.Errorf("electrons = %d, want 2,043,328", e)
	}
	if len(w.Polymers) < 1_500_000 {
		t.Errorf("polymers = %d, want >1.5M (paper: >2.8M contributions)", len(w.Polymers))
	}
	t.Logf("workload: %s", w)
}

func TestFLOPModelScaling(t *testing.T) {
	// Quintic-ish growth in fragment size: doubling nbf/nocc/naux must
	// grow FLOPs by far more than 2×.
	f1 := RIMP2GradientFLOPs(100, 20, 330)
	f2 := RIMP2GradientFLOPs(200, 40, 660)
	if f2 < 8*f1 {
		t.Errorf("FLOP model grows too slowly: %g → %g", f1, f2)
	}
	// Efficiency curve monotone increasing, bounded by EffMax.
	m := Frontier()
	prev := 0.0
	for _, nbf := range []int{50, 100, 400, 1200, 5000} {
		e := m.Efficiency(nbf)
		if e <= prev || e >= m.EffMax {
			t.Fatalf("efficiency curve broken at nbf=%d: %g", nbf, e)
		}
		prev = e
	}
}

func TestAsyncFasterThanSync(t *testing.T) {
	w := FibrilWorkload(4, 53, 20, 12) // the 2BEG analogue
	m := Perlmutter()
	async, err := Simulate(w, m, Options{Nodes: 1024, Steps: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := Simulate(w, m, Options{Nodes: 1024, Steps: 4, Async: false})
	if err != nil {
		t.Fatal(err)
	}
	if async.AvgStep >= sync.AvgStep {
		t.Errorf("async step %.3fs not faster than sync %.3fs", async.AvgStep, sync.AvgStep)
	}
	gain := sync.AvgStep/async.AvgStep - 1
	t.Logf("2BEG analogue: async %.3fs vs sync %.3fs per step (%.0f%% gain; paper: 40%%)",
		async.AvgStep, sync.AvgStep, 100*gain)
	if gain < 0.05 || gain > 2.0 {
		t.Errorf("async gain %.0f%% outside plausible band", 100*gain)
	}
}

func TestStrongScalingEfficiency(t *testing.T) {
	w := UreaWorkload(2400, 4, 15.3, 15.3)
	m := Frontier()
	base, err := Simulate(w, m, Options{Nodes: 64, Steps: 3, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(w, m, Options{Nodes: 256, Steps: 3, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	speedup := base.AvgStep / big.AvgStep
	eff := speedup / (256.0 / 64.0)
	t.Logf("strong scaling 64→256 nodes: speedup %.2f, efficiency %.0f%%", speedup, 100*eff)
	if eff < 0.5 || eff > 1.05 {
		t.Errorf("parallel efficiency %.2f outside plausible band", eff)
	}
	// Peak fractions within the paper's observed 31–62%+ window.
	for _, r := range []*Result{base, big} {
		if r.PeakFraction < 0.2 || r.PeakFraction > 0.9 {
			t.Errorf("peak fraction %.2f at %d nodes outside band", r.PeakFraction, r.Nodes)
		}
	}
}

func TestWeakScalingShape(t *testing.T) {
	// Constant work per GCD (≈4 polymers/GCD): the effective step
	// latency should stay roughly flat as nodes and system grow
	// together.
	m := Frontier()
	var lat []float64
	for _, nodes := range []int{8, 16, 32} {
		gcds := nodes * m.GCDsPerNode
		w := UreaWorkloadPolymerTarget(4*gcds, 4, 15.3, 15.3)
		r, err := Simulate(w, m, Options{Nodes: nodes, Steps: 3, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, r.AvgStep)
		t.Logf("nodes=%d polymers=%d (%.1f/GCD) step=%.1fs peak=%.0f%%",
			nodes, len(w.Polymers), float64(len(w.Polymers))/float64(gcds), r.AvgStep, 100*r.PeakFraction)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] > 1.8*lat[0] || lat[i] < lat[0]/1.8 {
			t.Errorf("weak scaling not flat: %.3fs vs %.3fs", lat[i], lat[0])
		}
	}
}

func TestSimValidation(t *testing.T) {
	w := UreaWorkload(40, 4, 15.3, 15.3)
	m := Frontier()
	if _, err := Simulate(w, m, Options{Nodes: 0, Steps: 1}); err == nil {
		t.Error("expected node validation error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 10, Steps: 0}); err == nil {
		t.Error("expected step validation error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 99999, Steps: 1}); err == nil {
		t.Error("expected too-many-nodes error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 10, Steps: 1, Schedule: coord.Schedule{Groups: -1}}); err == nil {
		t.Error("expected negative-groups error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 10, Steps: 1, Schedule: coord.Schedule{Batch: -3}}); err == nil {
		t.Error("expected negative-batch error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 10, Steps: 1, Schedule: coord.Schedule{MaxRetries: -1}}); err == nil {
		t.Error("expected negative-retries error")
	}
	if _, err := Simulate(w, m, Options{Nodes: 10, Steps: 1, Jitter: 1.5}); err == nil {
		t.Error("expected out-of-range jitter error")
	}
}

func TestSimConservationInvariants(t *testing.T) {
	w := UreaWorkload(200, 4, 15.3, 15.3)
	m := Frontier()
	r, err := Simulate(w, m, Options{Nodes: 8, Steps: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	// Total FLOPs = 2 × Σ per-polymer FLOPs.
	var want float64
	for _, p := range w.Polymers {
		nbf, nocc, naux := w.Size(p)
		want += RIMP2GradientFLOPs(nbf, nocc, naux)
	}
	want *= 2
	if math.Abs(r.TotalFLOPs-want)/want > 1e-12 {
		t.Errorf("FLOP accounting: %g vs %g", r.TotalFLOPs, want)
	}
	if r.Makespan <= 0 || r.PFLOPS <= 0 {
		t.Error("non-positive timing results")
	}
	// Makespan must be at least the serial-critical-path of one worker's
	// average share.
	if r.PeakFraction > 1 {
		t.Errorf("peak fraction %.2f exceeds 1", r.PeakFraction)
	}
}

func TestFibrilBondedDependencies(t *testing.T) {
	w := FibrilWorkload(2, 5, 10, 8)
	// Interior residues must have two bonded neighbours feeding their
	// touch sets.
	found := false
	for pi, p := range w.Tasks() {
		if p.Order == 1 && len(w.Graph().Touch[pi]) >= 3 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no monomer task carries bonded-neighbour dependencies")
	}
}

// dispatchBound builds a workload of thousands of tiny single-molecule
// fragments with no dimers (cutoff below the 4.59 Å lattice
// nearest-neighbour distance): ~1.4 ms tasks against ≥1024 workers make
// the flat serialised coordinator the bottleneck.
func dispatchBound() *Workload { return UreaWorkload(4000, 1, 4.0, 0) }

// The point of the hierarchy: on a dispatch-bound workload, batched
// group coordinators must cut super-coordinator utilisation and raise
// task throughput versus the flat scheduler.
func TestHierarchicalBeatsFlatWhenDispatchBound(t *testing.T) {
	w := dispatchBound()
	m := Frontier()
	flat, err := Simulate(w, m, Options{Nodes: 512, Steps: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Simulate(w, m, Options{Nodes: 512, Steps: 2, Async: true,
		Schedule: coord.Schedule{Groups: 8, Batch: 32, Steal: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flat: %.1f ms/step, util %.0f%%, %.0f tasks/s | hier: %.1f ms/step, util %.0f%%, %.0f tasks/s (%d batches, %d steals)",
		1e3*flat.AvgStep, 100*flat.CoordUtil, flat.Throughput,
		1e3*hier.AvgStep, 100*hier.CoordUtil, hier.Throughput, hier.Batches, hier.Steals)
	if flat.CoordUtil < 0.5 {
		t.Fatalf("flat coordinator utilisation %.2f — workload is not dispatch-bound, test is vacuous", flat.CoordUtil)
	}
	if hier.Throughput <= flat.Throughput {
		t.Errorf("hierarchical throughput %.0f tasks/s not above flat %.0f", hier.Throughput, flat.Throughput)
	}
	if hier.CoordUtil >= flat.CoordUtil {
		t.Errorf("hierarchical coordinator utilisation %.2f not below flat %.2f", hier.CoordUtil, flat.CoordUtil)
	}
	if hier.Batches >= flat.Batches {
		t.Errorf("batching did not reduce super-coordinator transfers: %d vs %d", hier.Batches, flat.Batches)
	}
	// Same physics either way: identical FLOPs executed.
	if math.Abs(hier.TotalFLOPs-flat.TotalFLOPs) > 1e-6*flat.TotalFLOPs {
		t.Errorf("hier executed %g FLOPs, flat %g — schedulers must do identical work", hier.TotalFLOPs, flat.TotalFLOPs)
	}
}

// Seeded jitter must be reproducible run-to-run and actually move the
// clock when the seed changes.
func TestJitterSeedReproducible(t *testing.T) {
	w := UreaWorkload(200, 4, 15.3, 15.3)
	m := Frontier()
	run := func(seed int64) *Result {
		r, err := Simulate(w, m, Options{Nodes: 8, Steps: 2, Async: true, Jitter: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(42), run(42)
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different makespans: %.9f vs %.9f", a.Makespan, b.Makespan)
	}
	if c := run(43); c.Makespan == a.Makespan {
		t.Errorf("different seeds produced identical makespan %.9f", a.Makespan)
	}
	// Zero jitter ignores the seed entirely: the deterministic model.
	d1, err := Simulate(w, m, Options{Nodes: 8, Steps: 2, Async: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Simulate(w, m, Options{Nodes: 8, Steps: 2, Async: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Makespan != d2.Makespan {
		t.Errorf("deterministic model moved with the seed: %.9f vs %.9f", d1.Makespan, d2.Makespan)
	}
}

// Work stealing under jitter: with imbalanced groups the simulator must
// record steals, and stealing must not lose or duplicate work.
func TestWorkStealingActivates(t *testing.T) {
	w := dispatchBound()
	m := Frontier()
	r, err := Simulate(w, m, Options{Nodes: 64, Steps: 2, Async: true,
		Schedule: coord.Schedule{Groups: 8, Batch: 64, Steal: true}, Jitter: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steals == 0 {
		t.Error("no steals recorded on an imbalanced hierarchical run")
	}
	var want float64
	for _, p := range w.Polymers {
		nbf, nocc, naux := w.Size(p)
		want += RIMP2GradientFLOPs(nbf, nocc, naux)
	}
	want *= float64(r.Steps)
	if math.Abs(r.TotalFLOPs-want)/want > 1e-12 {
		t.Errorf("stealing lost work: %g FLOPs executed, want %g", r.TotalFLOPs, want)
	}
}
