package bench

import (
	"fmt"
	"runtime"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// runStepPhaseRows times the phases of a cold RI-MP2 step that are not
// the contractions themselves, on the water trimer of the repo benchmark
// (sto-3g, naux = 414), so the BENCH_gemm.json gate keeps them from
// regressing. A row is named after its input and its kernel says what ran
// on it, as on the GEMM rows; the report prints kernel-name:
//
//   - metricfactor-aux-414: linalg.MetricFactor of the RI Coulomb metric
//     (P|Q), the factor scf.RHF builds B with. It is gated on its speedup
//     over the next row — same name, measured in the same run
//     (ratioReference) — and carries the same nominal 9n³ flops so that
//     the GFLOP/s ratio of the two rows is their time ratio.
//   - eigsym-aux-414: linalg.EigSym of the same metric, the O(n³) core of
//     the InvSqrtSym route MetricFactor replaced on the step path; kept,
//     untracked, as that reference. Nominal 9n³ flops (4n³/3 reduction,
//     the rest eigenvector accumulation).
//   - deriv3c-water3: one integrals.ThreeCenterDeriv contracted with a
//     dense weight tensor; nominal 9·naux·nbf² — one unit per Cartesian
//     derivative of every (μν|P) on its three centres — so the "GFLOP/s"
//     column is a throughput in derivative integrals, not a flop rate.
//     It is gated on its speedup over the next row (ratioReference).
//   - fockdirect-water3: integrals.FockDirect of a fixed density on the
//     same trimer — the four-centre kernel, which shares the Boys table
//     and the R-cube recursion (rRun.fill, at one member) with deriv3c,
//     so the ratio isolates what deriv3c alone runs: the stacked ket
//     fold, the member gather and the stacked bra step — kept,
//     untracked, as that reference, with the same nominal work so
//     that the GFLOP/s ratio of the two rows is their time ratio. Both
//     rows are timed at GOMAXPROCS 1: FockDirect splits its quartets in
//     two halves, ThreeCenterDeriv its shell pairs in GOMAXPROCS chunks,
//     each run on up to GOMAXPROCS goroutines (linalg.Parallel), so on
//     more cores their ratio would measure the core count.
func runStepPhaseRows() ([]GemmBenchRow, error) {
	g := molecule.WaterCluster(3)
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		return nil, fmt.Errorf("step phases: %w", err)
	}
	aux := basis.BuildAux(bs, g, basis.AuxOptions{})

	j2 := integrals.TwoCenter(aux)
	secEig := bestOf(3, func() { linalg.EigSym(j2) })
	secFactor := bestOf(3, func() { _, _, err = linalg.MetricFactor(j2, 1e-10) })
	if err != nil {
		return nil, fmt.Errorf("step phases: metric factor: %w", err)
	}

	z := linalg.NewTensor3(aux.N, bs.N, bs.N)
	for i := range z.Data {
		z.Data[i] = 1e-3 * float64(1+i%97)
	}
	grad := make([]float64, 3*g.N())
	dmat := linalg.NewMat(bs.N, bs.N)
	for i := range dmat.Data {
		dmat.Data[i] = 1e-2 * float64(1+(i%bs.N+i/bs.N)%7)
	}
	sw := integrals.SchwarzShellPairs(bs)
	procs := runtime.GOMAXPROCS(1)
	secDeriv := bestOf(3, func() { integrals.ThreeCenterDeriv(bs, aux, z, 1, grad) })
	// One call: at ~0.8 s it needs no best-of to average out scheduling.
	secFock := bestOf(1, func() { integrals.FockDirect(bs, dmat, sw, 1e-12) })
	runtime.GOMAXPROCS(procs)

	n := float64(aux.N)
	nbf := float64(bs.N)
	return []GemmBenchRow{
		{Name: "aux-414", M: aux.N, K: aux.N, N: aux.N, Kernel: "metricfactor",
			Seconds: secFactor, GFLOPS: 9 * n * n * n / secFactor / 1e9, Tracked: true},
		{Name: "aux-414", M: aux.N, K: aux.N, N: aux.N, Kernel: "eigsym",
			Seconds: secEig, GFLOPS: 9 * n * n * n / secEig / 1e9},
		{Name: "water3", M: bs.N, K: aux.N, N: bs.N, Kernel: "deriv3c",
			Seconds: secDeriv, GFLOPS: 9 * n * nbf * nbf / secDeriv / 1e9, Tracked: true},
		{Name: "water3", M: bs.N, K: aux.N, N: bs.N, Kernel: "fockdirect",
			Seconds: secFock, GFLOPS: 9 * n * nbf * nbf / secFock / 1e9},
	}, nil
}
