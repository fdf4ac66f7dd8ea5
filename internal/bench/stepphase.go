package bench

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
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
//     It is gated on its speedup over the next row (ratioReference),
//     which is timed pair by pair with it (see below).
//   - fockdirect-water3: integrals.FockDirect of a fixed density on the
//     same trimer — the four-centre kernel, which shares the Boys table
//     and the R-cube recursion (rRun.fill, at one member) with deriv3c,
//     so the ratio isolates what deriv3c alone runs: the stacked ket
//     fold, the member gather, the weighting into one Hermite cube per
//     auxiliary atom and the bra step on those cubes — kept,
//     untracked, as that reference, with the same nominal work. Both
//     rows are timed at GOMAXPROCS 1: FockDirect splits its quartets in
//     two halves, ThreeCenterDeriv its shell pairs in GOMAXPROCS chunks,
//     each run on up to GOMAXPROCS goroutines (linalg.Parallel), so on
//     more cores their ratio would measure the core count.
//
// One fockdirect call takes ~40 deriv3c calls, so a machine that slows
// down for a second moves one row and not the other. The two are
// therefore timed in derivPairs interleaved pairs (deriv3c as the best
// of 3 calls, then one fockdirect call); each row's Seconds is the
// median of its pair times, and the deriv3c row's Ratio — the number
// its gate reads — is the median of the per-pair speedups.
func runStepPhaseRows() ([]GemmBenchRow, error) {
	g := molecule.WaterCluster(3)
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		return nil, fmt.Errorf("step phases: %w", err)
	}
	aux := basis.BuildAux(bs, g, basis.AuxOptions{})

	j2 := integrals.TwoCenter(aux)
	secEig := bestOf(3, func() { linalg.EigSym(j2) })
	secFactor := bestOf(3, func() { _, _, err = linalg.MetricFactor(j2, scf.MetricDropTol) })
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
	derivSecs := make([]float64, derivPairs)
	fockSecs := make([]float64, derivPairs)
	for i := range derivPairs {
		derivSecs[i] = bestOf(3, func() { integrals.ThreeCenterDeriv(bs, aux, z, 1, grad) })
		fockSecs[i] = bestOf(1, func() { integrals.FockDirect(bs, dmat, sw, 1e-12) })
	}
	runtime.GOMAXPROCS(procs)
	secDeriv, secFock := median(derivSecs), median(fockSecs)

	n := float64(aux.N)
	nbf := float64(bs.N)
	return []GemmBenchRow{
		{Name: "aux-414", M: aux.N, K: aux.N, N: aux.N, Kernel: "metricfactor",
			Seconds: secFactor, GFLOPS: 9 * n * n * n / secFactor / 1e9, Tracked: true},
		{Name: "aux-414", M: aux.N, K: aux.N, N: aux.N, Kernel: "eigsym",
			Seconds: secEig, GFLOPS: 9 * n * n * n / secEig / 1e9},
		{Name: "water3", M: bs.N, K: aux.N, N: bs.N, Kernel: "deriv3c",
			Seconds: secDeriv, GFLOPS: 9 * n * nbf * nbf / secDeriv / 1e9, Tracked: true,
			Ratio: medianPairRatio(fockSecs, derivSecs)},
		{Name: "water3", M: bs.N, K: aux.N, N: bs.N, Kernel: "fockdirect",
			Seconds: secFock, GFLOPS: 9 * n * nbf * nbf / secFock / 1e9},
	}, nil
}

// derivPairs is the number of interleaved deriv3c/fockdirect pairs.
const derivPairs = 5

// medianPairRatio returns the median over pairs i of ref[i]/x[i]: the
// speedup of x over ref measured pair by pair, so a slow phase of the
// machine that covers one pair moves one ratio, not the median. An even
// count averages the middle two.
func medianPairRatio(ref, x []float64) float64 {
	r := make([]float64, len(x))
	for i := range x {
		r[i] = ref[i] / x[i]
	}
	return median(r)
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
