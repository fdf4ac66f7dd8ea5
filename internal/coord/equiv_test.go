package coord_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/cluster"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// taskID renders a dispatch as a backend-independent string: the
// polymer's monomer tuple plus the time step, or — for EE-MBE charge
// tasks (phase below the round count) — the monomer index, step and
// round.
func taskID(members [][]int32, rounds int, t coord.Task) string {
	if int(t.Phase) < rounds {
		return fmt.Sprintf("q%d@%d#%d", t.Poly, t.Step, t.Phase)
	}
	return fmt.Sprintf("%v@%d", members[t.Poly], t.Step)
}

// The tentpole acceptance test: the live in-process engine and the
// discrete-event cluster simulator run the *same* policy core, so on
// the same workload — identical monomer centroids, cutoffs, and
// serialised execution (one worker) — they must dispatch the identical
// task sequence, flat and hierarchical, async and sync, although the
// live engine hands out same-step runs and the simulator single tasks.
func TestLiveAndSimulatedBackendsDispatchIdentically(t *testing.T) {
	const (
		dimerCut  = 12.0 // Bohr; ≥ trimerCut so both enumerations agree
		trimerCut = 9.0
		steps     = 3
	)
	g := molecule.WaterCluster(7)
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{
		DimerCutoff: dimerCut, TrimerCutoff: trimerCut,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator sees the same workload through monomer centroids:
	// fragment dimensions only move the simulated clock, which a single
	// serialised worker makes irrelevant to dispatch order.
	var specs []cluster.MonomerSpec
	for mi := range f.Monomers {
		specs = append(specs, cluster.MonomerSpec{
			Centroid: f.Centroid(mi), Atoms: 3, NBf: 13, NOcc: 5, NAux: 42,
		})
	}
	w := cluster.NewWorkload(specs, dimerCut, trimerCut)
	if len(w.Polymers) != len(f.Terms().All()) {
		t.Fatalf("enumerations disagree: simulator %d polymers, fragmentation %d",
			len(w.Polymers), len(f.Terms().All()))
	}
	testMachine := cluster.Machine{
		Name: "equiv", Nodes: 1, GCDsPerNode: 1, PeakTF: 1,
		EffMax: 0.8, EffHalf: 100, DispatchLatency: 1e-6, CoordService: 1e-6,
	}

	configs := []struct {
		name          string
		async         bool
		groups, batch int
		steal         bool
		scc           int // EE-MBE SCC rounds; −1 = vacuum (no embedding)
	}{
		{"flat-async", true, 0, 0, false, -1},
		{"flat-sync", false, 0, 0, false, -1},
		{"batched-async", true, 2, 4, true, -1},
		// The two-phase embedded graph: charge rounds barrier each step
		// in both backends.
		{"embedded-async", true, 0, 0, false, 1},
		{"embedded-sync", false, 0, 0, false, 0},
		{"embedded-batched", true, 2, 4, true, 0},
	}
	for _, cfg := range configs {
		var embed *fragment.EmbedOptions
		rounds := 0
		if cfg.scc >= 0 {
			embed = &fragment.EmbedOptions{SCC: cfg.scc}
			rounds = embed.Rounds()
		}
		var live []string
		var eng *sched.Engine
		eng, err = sched.New(f, &potential.LennardJones{Charges: map[int]float64{1: 0.2, 8: -0.4}}, sched.Options{
			Workers: 1, Async: cfg.async, Dt: 0.5 * chem.AtomicTimePerFs,
			// Near-symmetric lattices leave the farthest-from-centroid
			// choice to float summation order; pin both backends to the
			// simulator's pick so the priorities are identical.
			RefMonomer: w.RefMono(),
			Embed:      embed,
			Schedule: coord.Schedule{
				Groups: cfg.groups, Batch: cfg.batch, Steal: cfg.steal,
				TraceDispatch: func(tk coord.Task, _ coord.DispatchMeta) {
					live = append(live, taskID(eng.Graph().Members, rounds, tk))
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(f.Geom.Clone())
		state.SampleVelocities(100, rand.New(rand.NewSource(17)))
		if _, err := eng.Run(state, steps, nil); err != nil {
			t.Fatal(err)
		}
		// The live engine measures its microsecond LJ evaluations, so
		// every step after the first goes out in multi-task hand-offs;
		// the simulator reports no cost and dispatches one at a time.
		// With one worker the two must still pop the same sequence.
		if eng.RunStats().Coalesced == 0 {
			t.Fatalf("%s: live engine dispatched no task behind another in a hand-off — the comparison would not cover cost-sized hand-offs", cfg.name)
		}

		var sim []string
		_, err = cluster.Simulate(w, testMachine, cluster.Options{
			Nodes: 1, Steps: steps, Async: cfg.async, Seed: 17,
			ChargeRounds: rounds,
			Schedule: coord.Schedule{
				Groups: cfg.groups, Batch: cfg.batch, Steal: cfg.steal,
				TraceDispatch: func(tk coord.Task, _ coord.DispatchMeta) {
					sim = append(sim, taskID(w.Graph().Members, rounds, tk))
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		if len(live) != len(sim) {
			t.Fatalf("%s: live dispatched %d tasks, simulator %d", cfg.name, len(live), len(sim))
		}
		for i := range live {
			if live[i] != sim[i] {
				t.Fatalf("%s: dispatch %d diverges — live %s, simulator %s",
					cfg.name, i, live[i], sim[i])
			}
		}
		t.Logf("%s: %d dispatches identical across backends (%d live ones behind another in a hand-off)",
			cfg.name, len(live), eng.RunStats().Coalesced)
	}
}

// Both backends apply one counting rule (coord.Coefficients) to their
// own enumeration and drop the same zero-coefficient polymers, with the
// trimer cutoff below the dimer cutoff and above it (where a trimer's
// far dimer is evaluated but is no term of its own).
func TestBackendsDropTheSameZeroCoefficientPolymers(t *testing.T) {
	g := molecule.WaterCluster(7)
	for _, cut := range [][2]float64{{12, 9}, {6, 8}} {
		f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{DimerCutoff: cut[0], TrimerCutoff: cut[1]})
		if err != nil {
			t.Fatal(err)
		}
		var specs []cluster.MonomerSpec
		for mi := range f.Monomers {
			specs = append(specs, cluster.MonomerSpec{Centroid: f.Centroid(mi), Atoms: 3, NBf: 13, NOcc: 5, NAux: 42})
		}
		w := cluster.NewWorkload(specs, cut[0], cut[1])
		terms := f.Terms()
		var live, liveTasks []string
		for i, p := range terms.All() {
			live = append(live, fmt.Sprint(p.Monomers))
			if terms.Coeff(i) != 0 {
				liveTasks = append(liveTasks, fmt.Sprint(p.Monomers))
			}
		}
		name := func(ps []cluster.Polymer) []string {
			var out []string
			for _, p := range ps {
				ms := make([]int, p.Order)
				for k := range ms {
					ms[k] = int(p.M[k])
				}
				out = append(out, fmt.Sprint(ms))
			}
			return out
		}
		if sim := name(w.Polymers); !slices.Equal(sim, live) {
			t.Errorf("cutoffs %v: simulator enumerates %d polymers, fragmentation %d", cut, len(sim), len(live))
		}
		if sim := name(w.Tasks()); !slices.Equal(sim, liveTasks) {
			t.Errorf("cutoffs %v: simulator keeps %d tasks, fragmentation %d", cut, len(sim), len(liveTasks))
		}
		if len(liveTasks) == len(live) {
			t.Errorf("cutoffs %v: no polymer has coefficient 0 — the comparison covers no pruning", cut)
		}
		t.Logf("cutoffs %v: %d of %d polymers are tasks in both backends", cut, len(liveTasks), len(live))
	}
}
