// Package autotune implements the runtime GEMM auto-tuning scheme of the
// paper (§V-G, innovation iv), extended with engine arbitration. For
// every distinct GEMM shape (m, k, n) encountered during execution, the
// tuner trials each candidate execution strategy on the first calls with
// that shape — measuring the full cost including any operand transposes
// or packing — and then routes all subsequent calls with the same shape
// to the fastest. Measurement is in-situ: trial calls perform useful
// work, so no computation is wasted.
//
// The candidate set covers the four streaming variants (NN, NT, TN, TT:
// different loop orders, selected by materialising cheap transposes) and
// the packed, register-blocked engine (one orientation-free micro-kernel;
// the transposes fold into the pack step, but small shapes pay a packing
// cost the streaming loops avoid). The paper reports up to 20× spread
// between variants on MI250X (Table IV) and 12–13 % end-to-end AIMD
// speedups from the tuner; the pure-Go engines show the same qualitative
// spread because their cache behaviour differs per shape.
//
// The tuner is the §V-G experiment (mbebench table4 / autotune,
// examples/autotune_demo), not part of the evaluation path: scf and mp2
// call linalg.Gemm, whose static size-keyed dispatch wins every tracked
// shape.
package autotune

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/linalg"
)

// shape identifies a GEMM problem: C(m×n) = op(A)·op(B) with inner
// dimension k, for the *logical* (already-op-applied) dimensions.
type shape struct{ m, k, n int }

// Candidate execution strategies: the four streaming variants and the
// packed engine.
const (
	candNN     = int(linalg.VariantNN)
	candNT     = int(linalg.VariantNT)
	candTN     = int(linalg.VariantTN)
	candTT     = int(linalg.VariantTT)
	candPacked = 4

	// numCandidates is the arbitration arity: 4 streaming variants + the
	// packed engine.
	numCandidates = 5
)

var candidateNames = [numCandidates]string{"NN", "NT", "TN", "TT", "PK"}

// CandidateName returns the display name of candidate index i
// ("NN".."TT" for the streaming variants, "PK" for the packed engine).
func CandidateName(i int) string { return candidateNames[i] }

// trialsPerCandidate is how many timed calls each candidate receives
// before the tuner locks in a winner (the paper trials each variant
// once; more calls would de-noise CPU timing at the cost of running
// slow candidates longer).
const trialsPerCandidate = 1

// state tracks the tuning progress for one shape.
type state struct {
	trials [numCandidates]int     // calls measured per candidate
	total  [numCandidates]float64 // accumulated seconds per candidate
	best   int
	locked bool
}

// Stats describes the tuning outcome for one GEMM shape.
type Stats struct {
	M, K, N    int
	Best       int // winning candidate index (see CandidateName)
	Locked     bool
	Seconds    [numCandidates]float64 // mean seconds per candidate (0 if untried)
	GFLOPS     [numCandidates]float64 // 2mnk / mean seconds (0 if untried)
	SpeedupPct float64                // best vs worst tried candidate, percent
}

// BestName returns the display name of the winning candidate.
func (s Stats) BestName() string { return candidateNames[s.Best] }

// Tuner performs per-shape GEMM strategy selection. The zero value is
// not usable; create with New. A disabled tuner (Enabled == false)
// always dispatches the variant the caller asked for through the
// default engine heuristic, which is the ablation baseline for the §V-G
// speedup measurement.
type Tuner struct {
	// Enabled turns auto-tuning on. When false every call uses the
	// natural (caller-specified) variant.
	Enabled bool

	mu     sync.Mutex
	shapes map[shape]*state
}

// New returns an enabled Tuner.
func New() *Tuner {
	return &Tuner{Enabled: true, shapes: make(map[shape]*state)}
}

// Default is a process-wide tuner that nothing on the evaluation path
// routes through: scf and mp2 call linalg.Gemm directly, because with an
// assembly micro-kernel the packed engine wins every shape big enough for
// a trial to cost anything (a lost trial of a 414³ product is 25 calls of
// the winner), and a winner locked on one noisy in-situ timing made
// otherwise identical runs differ by ±6 % in step time. It starts
// disabled and records nothing; the repository benchmark still reads its
// (empty) Snapshot.
var Default = &Tuner{shapes: make(map[shape]*state)}

// Gemm computes C = alpha·op(A)·op(B) + beta·C like linalg.Gemm, but may
// internally transpose operands or route to the packed engine to execute
// the fastest strategy for this logical shape. Results are identical up
// to floating-point rounding.
func (t *Tuner) Gemm(tA, tB linalg.Transpose, alpha float64, a, b *linalg.Mat, beta float64, c *linalg.Mat) {
	if t == nil || !t.Enabled {
		linalg.Gemm(tA, tB, alpha, a, b, beta, c)
		return
	}
	m, k := a.Rows, a.Cols
	if tA {
		m, k = a.Cols, a.Rows
	}
	n := b.Cols
	if tB {
		n = b.Rows
	}
	sh := shape{m, k, n}

	t.mu.Lock()
	st, ok := t.shapes[sh]
	if !ok {
		st = &state{}
		t.shapes[sh] = st
	}
	var cand int
	if st.locked {
		cand = st.best
	} else {
		// Pick the least-tried candidate for this call.
		cand = candNN
		for v := candNN; v < numCandidates; v++ {
			if st.trials[v] < st.trials[cand] {
				cand = v
			}
		}
	}
	locked := st.locked
	t.mu.Unlock()

	start := time.Now()
	runCandidate(cand, tA, tB, alpha, a, b, beta, c)
	elapsed := time.Since(start).Seconds()

	if locked {
		return
	}
	t.mu.Lock()
	st.trials[cand]++
	st.total[cand] += elapsed
	done := true
	for v := candNN; v < numCandidates; v++ {
		if st.trials[v] < trialsPerCandidate {
			done = false
			break
		}
	}
	if done && !st.locked {
		best := candNN
		for v := candNN; v < numCandidates; v++ {
			if st.total[v]/float64(st.trials[v]) < st.total[best]/float64(st.trials[best]) {
				best = v
			}
		}
		st.best = best
		st.locked = true
	}
	t.mu.Unlock()
}

// runCandidate executes the logical product op(A)·op(B) using the
// requested strategy.
//
// For the packed engine the logical orientation passes straight through:
// packing folds both transposes, so no operand is materialised. For a
// streaming candidate, the variant says which orientations the kernel
// should see; if they differ from the logical orientation for an
// operand, we materialise its transpose so the kernel's orientation
// flag flips while the math stays the same.
func runCandidate(cand int, tA, tB linalg.Transpose, alpha float64, a, b *linalg.Mat, beta float64, c *linalg.Mat) {
	if cand == candPacked {
		linalg.GemmKernel(linalg.KernelPacked, tA, tB, alpha, a, b, beta, c)
		return
	}
	v := linalg.Variant(cand)
	wantTA := v == linalg.VariantTN || v == linalg.VariantTT
	wantTB := v == linalg.VariantNT || v == linalg.VariantTT
	pa, pb := a, b
	fa, fb := tA, tB
	if bool(tA) != wantTA {
		pa = a.T()
		fa = linalg.Transpose(wantTA)
	}
	if bool(tB) != wantTB {
		pb = b.T()
		fb = linalg.Transpose(wantTB)
	}
	linalg.GemmKernel(linalg.KernelStream, fa, fb, alpha, pa, pb, beta, c)
}

// Snapshot returns per-shape tuning statistics sorted by descending
// problem size, for reporting (cmd/mbebench table4).
func (t *Tuner) Snapshot() []Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Stats, 0, len(t.shapes))
	for sh, st := range t.shapes {
		s := Stats{M: sh.m, K: sh.k, N: sh.n, Best: st.best, Locked: st.locked}
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
		bestT, worstT := 0.0, 0.0
		for v := 0; v < numCandidates; v++ {
			if st.trials[v] == 0 {
				continue
			}
			mean := st.total[v] / float64(st.trials[v])
			s.Seconds[v] = mean
			if mean > 0 {
				s.GFLOPS[v] = flops / mean / 1e9
			}
			if bestT == 0 || mean < bestT {
				bestT = mean
			}
			if mean > worstT {
				worstT = mean
			}
		}
		if bestT > 0 {
			s.SpeedupPct = 100 * (worstT - bestT) / worstT
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].M*out[i].K*out[i].N > out[j].M*out[j].K*out[j].N
	})
	return out
}

// String summarises a Stats row.
func (s Stats) String() string {
	return fmt.Sprintf("(%d×%d)·(%d×%d) best=%s locked=%v", s.M, s.K, s.K, s.N, s.BestName(), s.Locked)
}
