package main

// metric names one reported number and its unit. The two tables below
// are the benchmark's whole vocabulary: BENCHMARK.json lists exactly
// these names (a test compares them), every workload emits every name,
// and a layer a workload never enters reports 0.
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees. An operation is one MD
// step on the trajectory workloads and one job on serve-lj-chunked.
var endToEnd = []metric{
	{"setup_s", "s"},     // process ready → first timed operation, median of the set-up repetitions
	{"op_s", "s"},        // median wall time of one operation
	{"ops_per_s", "1/s"}, // operations completed / timed wall
}

// perLayer is measured by the traced run and the replay pass; the
// prefix is the module (internal/<prefix>) the number belongs to.
var perLayer = []metric{
	{"runtime.alloc_mb_per_step", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"replay.coverage_frac", "ratio"},

	{"linalg.gemm_flops_per_step", "count"},
	{"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.peak_gflops", "GFLOP/s"},
	{"linalg.roofline_frac", "ratio"},
	{"linalg.invsqrt_s_per_step", "s"},
	{"autotune.shapes", "count"},
	{"autotune.unlocked_shapes", "count"},
	{"basis.build_s_per_step", "s"},
	{"integrals.oneelec_s_per_step", "s"},
	{"integrals.twocenter_s_per_step", "s"},
	{"integrals.threecenter_s_per_step", "s"},
	{"integrals.deriv_s_per_step", "s"},
	{"scf.rhf_s_per_step", "s"},
	{"scf.self_s_per_step", "s"},
	{"scf.s_per_iter", "s"},
	{"scf.iters_per_eval", "count"},
	{"mp2.energy_s_per_step", "s"},
	{"mp2.gradient_s_per_step", "s"},
	{"mp2.gradient_self_s_per_step", "s"},
	{"potential.evaluate_monomer_s", "s"},
	{"potential.evaluate_dimer_s", "s"},
	{"potential.evaluate_trimer_s", "s"},
	{"potential.busy_s_per_step", "s"},
	{"potential.lj_evaluate_us", "us"},
	{"warmstart.hit_frac", "ratio"},
	{"warmstart.skips", "count"},

	{"sched.step_p90_s", "s"},
	{"sched.worker_busy_frac", "ratio"},
	{"sched.overhead_us_per_polymer", "us"},
	{"fragment.polymers_per_step", "count"},
	{"fragment.extract_us_per_polymer", "us"},
	{"fragment.fold_us_per_polymer", "us"},
	{"fragment.terms_s", "s"},
	{"coord.policy_us_per_task", "us"},
	{"md.integrate_us_per_atom_step", "us"},
	{"neighbor.pairs_s", "s"},
	{"neighbor.triples_s", "s"},
	{"neighbor.pairs", "count"},
	{"neighbor.triples", "count"},

	{"serve.job_p90_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.first_chunk_s", "s"},
	{"serve.run_s", "s"},
	{"serve.chunks_per_job", "count"},
	{"serve.chunk_overhead_ratio", "ratio"},
	{"resilience.save_s", "s"},
	{"resilience.save_bytes", "B"},
	{"resilience.load_s", "s"},
}

// values maps metric name → measured value.
type values map[string]float64

// outcome is what one run of one workload produced.
type outcome struct {
	endToEnd  values
	perLayer  values         // nil unless the run was traced
	samples   map[string]int // sample count behind each timed median
	attempted int            // polymer evaluations, or jobs on serve-lj-chunked
	failed    int            // jobs that did not end done and correct; a failed polymer evaluation aborts the run instead
	failure   error          // the first failed operation's error
	energies  []float64      // per-step potential energies of a trajectory run (cross-workload checks)
	spanFile  string
}
