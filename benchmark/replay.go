package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/mp2"
	"github.com/fragmd/fragmd/internal/neighbor"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/scf"
	"github.com/fragmd/fragmd/internal/sched"
)

// traced runs the workload a second time with every polymer evaluation
// wrapped in a span, replays one step's polymers through each layer's
// public functions on this goroutine, and fills out.perLayer. plain is
// the untraced run the overhead is measured against.
func (w trajWorkload) traced(cfg config, sys *trajSystem, plain *trajRun, out *outcome) error {
	rec := newRecorder()
	root := rec.open("run", -1, w.name)

	steps, budget := w.plan(cfg, sys, 0.5)
	steps = min(steps, cfg.size.maxTraced)
	wrapped := newTracedEval(sys.eval, workers, steps*len(sys.frag.Terms().All()))
	eng, err := sched.New(sys.frag, wrapped, sys.opts)
	if err != nil {
		return err
	}
	run, err := sys.run(eng, steps, budget)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	// The GEMM tuner arbitrates by timing, so two runs may round the
	// gradient differently (≈1e-9) and drift apart after step 0; 1e-8 is
	// the repository's stated tuner-on reproducibility.
	if err := agree(plain.energies(), run.energies(), 1e-10, 1e-8, "traced vs untraced run"); err != nil {
		return err
	}
	t := rec.epoch.Add(time.Duration(rec.spans[root].start))
	for i, dt := range run.intervals {
		end := t.Add(time.Duration(dt * 1e9))
		rec.add("sched.step", t, end, root, -1, fmt.Sprintf("%s/step-%d", w.name, i))
		t = end
	}
	lanes := wrapped.flush(rec, root, w.name)

	npoly := run.stats[0].NPolymer
	nsteps := float64(len(run.stats))
	var busy float64
	byOrder := map[int][]float64{}
	for _, lane := range lanes {
		for _, ev := range lane {
			d := float64(ev.end-ev.start) / 1e9
			busy += d
			order := int(ev.atoms) / atomsPerMol
			byOrder[order] = append(byOrder[order], d)
		}
	}
	peak := peakGflops()
	gflops := ratio(float64(run.flops), busy) / 1e9
	pl := values{
		"trace.overhead_frac":           median(run.intervals)/median(plain.intervals) - 1,
		"sched.step_p90_s":              p90(plain.intervals),
		"runtime.alloc_mb_per_step":     plain.allocMB / float64(len(plain.stats)),
		"runtime.gc_cpu_frac":           plain.gcFrac,
		"fragment.polymers_per_step":    float64(npoly),
		"potential.busy_s_per_step":     busy / nsteps,
		"sched.worker_busy_frac":        busy / (workers * run.wall),
		"sched.overhead_us_per_polymer": (workers*run.wall - busy) / (nsteps * float64(npoly)) * 1e6,
		"linalg.gemm_flops_per_step":    float64(run.flops) / nsteps,
		"linalg.gemm_gflops":            gflops,
		"linalg.peak_gflops":            peak,
		"linalg.roofline_frac":          gflops / peak,
		"scf.iters_per_eval":            itersPerEval(plain),
	}
	if w.rimp2 {
		pl["potential.evaluate_monomer_s"] = median(byOrder[1])
		pl["potential.evaluate_dimer_s"] = median(byOrder[2])
		pl["potential.evaluate_trimer_s"] = median(byOrder[3])
	}
	if c := sys.eng.Cache(); c != nil {
		st := c.Stats()
		pl["warmstart.hit_frac"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
		pl["warmstart.skips"] = float64(st.Skips)
	}

	rp := rec.open("replay", root, w.name)
	err = w.replay(rec, rp, sys, pl)
	rec.close(rp)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rec.close(root)

	shapes := autotune.Default.Snapshot()
	pl["autotune.shapes"] = float64(len(shapes))
	for _, s := range shapes {
		if !s.Locked {
			pl["autotune.unlocked_shapes"]++
		}
	}
	out.perLayer = pl
	out.samples["sched.step_p90_s"] = len(plain.intervals)
	out.spanFile = filepath.Join(cfg.traceDir, w.name+".spans.json")
	return rec.writeFile(out.spanFile, w.name, cfg.seed)
}

// itersPerEval is the median over steps 1..n of SCF iterations per
// polymer evaluation (step 0 is always a cold start).
func itersPerEval(r *trajRun) float64 {
	var per []float64
	for _, st := range r.stats[min(1, len(r.stats)-1):] {
		per = append(per, float64(st.SCFIters)/float64(st.NPolymer))
	}
	return median(per)
}

// peakGflops is this process's GEMM ceiling: linalg.Gemm on 256³, best
// of five, on one goroutine — the unit the busy-second rates compare to.
func peakGflops() float64 {
	const n = 256
	a, b, c := linalg.NewMat(n, n), linalg.NewMat(n, n), linalg.NewMat(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i%13) / 13
		b.Data[i] = float64(i%7) / 7
	}
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, b, 0, c)
		best = math.Min(best, time.Since(start).Seconds())
	}
	return 2 * n * n * n / best / 1e9
}

const minCoverage = 0.8

// replay takes each polymer of step 0 through the layers by hand, one
// call per span, so a layer's cost is measured without contention and
// without touching the program. Per-step numbers are sums over the
// step's polymers.
func (w trajWorkload) replay(rec *recorder, parent int, sys *trajSystem, pl values) error {
	f := sys.frag
	terms := f.Terms()
	polymers := terms.All()
	coeff := terms.Coefficients()
	pos := func(a int) [3]float64 { return sys.state.Geom.Atoms[a].Pos }
	parentGrad := make([]float64, 3*f.Geom.N())
	lj, _ := sys.eval.(*potential.LennardJones)
	rimp2, _ := sys.eval.(*potential.RIMP2)

	var epot float64
	var scfIters int
	for _, p := range polymers {
		id := w.name + "/polymer-" + p.Key()
		sp := rec.open("replay.polymer", parent, id)
		var ex *fragment.Extracted
		rec.time("fragment.extract", sp, id, func() { ex = f.ExtractAt(p, pos) })
		var e float64
		var grad []float64
		var err error
		if rimp2 != nil {
			var iters int
			e, grad, iters, err = replayRIMP2(rec, sp, id, rimp2, ex.Geom)
			scfIters += iters
		} else {
			rec.time("potential.lj_evaluate", sp, id, func() { e, grad, _, err = lj.EvaluateFrom(ex.Geom, nil) })
		}
		if err != nil {
			return fmt.Errorf("polymer %s: %w", p.Key(), err)
		}
		c := coeff[p.Key()]
		epot += c * e
		rec.time("fragment.fold", sp, id, func() { ex.FoldGradient(grad, c, parentGrad) })
		rec.close(sp)
	}
	if d := math.Abs(epot - sys.epot0); !(d <= sys.epot0Tol) {
		return fmt.Errorf("replayed MBE energy differs from the reference by %.3g Ha", d)
	}
	n := float64(len(polymers))
	pl["fragment.extract_us_per_polymer"] = rec.seconds("fragment.extract") / n * 1e6
	pl["fragment.fold_us_per_polymer"] = rec.seconds("fragment.fold") / n * 1e6
	if lj != nil {
		pl["potential.lj_evaluate_us"] = median(rec.durations("potential.lj_evaluate")) * 1e6
	} else {
		rimp2Layers(rec, pl, scfIters)
		// Expected ≥ 0.9 (it reads 0.95–1.09 when nothing is missing: the
		// two sides are timed apart on a box whose speed wanders); below
		// minCoverage the evaluator does work the replay does not know.
		if pl["replay.coverage_frac"] < minCoverage {
			return fmt.Errorf("replayed layers cover %.3f of the evaluation time, need %.1f", pl["replay.coverage_frac"], minCoverage)
		}
	}

	// coord: the scheduling policy alone, against a backend that
	// completes every task the moment it is dispatched.
	const policySteps = 3
	graph := sys.eng.Graph()
	pol, err := coord.NewPolicy(graph, coord.Options{Steps: policySteps, Workers: workers})
	if err != nil {
		return err
	}
	var inFlight []coord.Completion
	backend := &coord.BackendFuncs{
		NumWorkers: workers,
		DispatchFn: func(wk int, t coord.Task, _ coord.DispatchMeta) {
			inFlight = append(inFlight, coord.Completion{Worker: wk, Task: t})
		},
		AwaitFn: func(context.Context) (coord.Completion, error) {
			c := inFlight[0]
			inFlight = inFlight[1:]
			return c, nil
		},
	}
	sec := rec.time("coord.policy", parent, w.name, func() { err = coord.Run(pol, backend, nil) })
	if err != nil {
		return err
	}
	pl["coord.policy_us_per_task"] = sec / float64(policySteps*graph.NPoly()) * 1e6

	// md: whole-system velocity Verlet with forces that cost nothing.
	const mdSteps = 100
	zero := make([]float64, 3*f.Geom.N())
	vv := &md.VelocityVerlet{Dt: sys.opts.Dt, Provider: md.ForceFunc(
		func(*molecule.Geometry) (float64, []float64, error) { return 0, zero, nil })}
	state := sys.state.Clone()
	sec = rec.time("md.integrate", parent, w.name, func() { err = vv.Run(state, mdSteps, nil) })
	if err != nil {
		return err
	}
	pl["md.integrate_us_per_atom_step"] = sec / float64(mdSteps*f.Geom.N()) * 1e6

	// fragment and neighbor: the set-up enumeration, on a fresh
	// fragmentation of the same system.
	fresh, err := fragment.ByMolecule(f.Geom.Clone(), atomsPerMol, 1, f.Opts)
	if err != nil {
		return err
	}
	pl["fragment.terms_s"] = rec.time("fragment.terms", parent, w.name, func() { fresh.Terms() })
	if cell := f.Geom.Cell; cell != nil {
		pts := make([][3]float64, len(f.Monomers))
		for mi := range pts {
			pts[mi] = f.Centroid(mi)
		}
		// The cell list bins lazily, per cutoff, inside the enumeration
		// calls, so construction has no cost of its own to report.
		list := neighbor.NewPeriodic(pts, cell.L)
		var pairs, triples int
		pl["neighbor.pairs_s"] = rec.time("neighbor.pairs", parent, w.name, func() {
			list.Pairs(f.Opts.DimerCutoff, func(int, int) bool { pairs++; return true })
		})
		pl["neighbor.triples_s"] = rec.time("neighbor.triples", parent, w.name, func() {
			list.Triples(f.Opts.TrimerCutoff, func(int, int, int) bool { triples++; return true })
		})
		pl["neighbor.pairs"], pl["neighbor.triples"] = float64(pairs), float64(triples)
	}
	return nil
}

// replayRIMP2 performs one RI-MP2 evaluation layer by layer. The
// pieces RHF computes internally (one-electron, two- and three-center
// integrals, J^-1/2) are first called on their own, so scf's self time
// is what is left of scf.rhf after subtracting them; likewise the
// integral derivatives inside the gradient. A plain EvaluateFrom of
// the same geometry closes the loop: it must return the same energy,
// and the composed layers must account for its time.
func replayRIMP2(rec *recorder, parent int, id string, p *potential.RIMP2, g *molecule.Geometry) (e float64, grad []float64, scfIters int, err error) {
	var bs, aux *basis.Set
	rec.time("basis.build", parent, id, func() { bs, err = basis.Build(p.Basis, g) })
	if err != nil {
		return 0, nil, 0, err
	}
	rec.time("basis.build_aux", parent, id, func() { aux = basis.BuildAux(bs, g, p.AuxOpts) })
	rec.time("integrals.oneelec", parent, id, func() { integrals.Overlap(bs); integrals.Hcore(bs, g) })
	var j2 *linalg.Mat
	rec.time("integrals.twocenter", parent, id, func() { j2 = integrals.TwoCenter(aux) })
	rec.time("integrals.threecenter", parent, id, func() {
		integrals.ThreeCenterScreened(bs, aux, integrals.SchwarzShellPairs(bs), 1e-12)
	})
	rec.time("linalg.invsqrt", parent, id, func() { linalg.InvSqrtSym(j2, 1e-10) })

	opts := p.SCFOpts
	opts.UseRI = true
	opts.AuxOpts = p.AuxOpts
	var ref *scf.Result
	rec.time("scf.rhf", parent, id, func() { ref, err = scf.RHF(g, bs, opts) })
	if err != nil {
		return 0, nil, 0, err
	}
	mopts := p.MP2Opts
	mopts.SCS = p.SCS
	var corr *mp2.Result
	rec.time("mp2.energy", parent, id, func() { corr, err = mp2.RIMP2(ref, mopts) })
	if err != nil {
		return 0, nil, 0, err
	}
	rec.time("mp2.gradient", parent, id, func() { grad, _, err = corr.Gradients() })
	if err != nil {
		return 0, nil, 0, err
	}
	scratch := make([]float64, 3*g.N())
	rec.time("integrals.deriv", parent, id, func() {
		integrals.ThreeCenterDeriv(bs, ref.Aux, ref.B, 1, scratch)
		integrals.TwoCenterDeriv(ref.Aux, ref.J2, 1, scratch)
	})

	rec.time("replay.evaluate", parent, id, func() { e, _, _, err = p.EvaluateFrom(g, nil) })
	if err != nil {
		return 0, nil, 0, err
	}
	if d := math.Abs(e - corr.ETotal); !(d <= 1e-10) {
		return 0, nil, 0, fmt.Errorf("layer-by-layer energy differs from EvaluateFrom by %.3g Ha", d)
	}
	return corr.ETotal, grad, ref.Iters, nil
}

// rimp2Layers turns the replay spans into the per-step layer numbers.
func rimp2Layers(rec *recorder, pl values, scfIters int) {
	s := rec.seconds
	rhf := s("scf.rhf")
	inside := s("basis.build_aux") + s("integrals.oneelec") + s("integrals.twocenter") +
		s("integrals.threecenter") + s("linalg.invsqrt")
	pl["basis.build_s_per_step"] = s("basis.build") + s("basis.build_aux")
	pl["integrals.oneelec_s_per_step"] = s("integrals.oneelec")
	pl["integrals.twocenter_s_per_step"] = s("integrals.twocenter")
	pl["integrals.threecenter_s_per_step"] = s("integrals.threecenter")
	pl["integrals.deriv_s_per_step"] = s("integrals.deriv")
	pl["linalg.invsqrt_s_per_step"] = s("linalg.invsqrt")
	pl["scf.rhf_s_per_step"] = rhf
	pl["scf.self_s_per_step"] = rhf - inside
	pl["scf.s_per_iter"] = rhf / float64(scfIters)
	pl["mp2.energy_s_per_step"] = s("mp2.energy")
	pl["mp2.gradient_s_per_step"] = s("mp2.gradient")
	pl["mp2.gradient_self_s_per_step"] = s("mp2.gradient") - s("integrals.deriv")
	pl["replay.coverage_frac"] = (s("basis.build") + rhf + s("mp2.energy") + s("mp2.gradient")) / s("replay.evaluate")
}
