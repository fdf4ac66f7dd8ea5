// Package mp2 implements second-order Møller–Plesset perturbation theory
// on top of a converged RI-HF reference: the RI-MP2 energy (paper Eq. 9),
// its spin-component-scaled variant, the conventional (four-center) MP2
// baseline, and the fully analytic combined RI-HF + RI-MP2 nuclear
// gradient (paper Eq. 10 and appendix) — the paper's innovation (ii).
//
// Every bottleneck is expressed as a GEMM sequence, mirroring the
// paper's GPU pipeline; the B tensor
// computed during the SCF is reused, never recomputed. The AO→MO
// transform runs as two batched GEMMs over the flattened (naux·nbf)
// dimension producing an explicit Qov tensor, and the (i,j)-pair energy
// loop contracts a whole strip of j-columns per GEMM, so the packed
// engine always sees macro-tile-sized problems (DESIGN.md §9).
package mp2

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/scf"
)

// DegenGapTol is the minimum HOMO–LUMO gap (Ha) accepted by the MP2
// energy denominators. Orbital energies are sorted ascending, so every
// pair denominator satisfies |Δ_ijab| ≥ 2·(ε_LUMO − ε_HOMO); below this
// gap the perturbation series is meaningless and naive division would
// silently produce ±Inf/NaN energies that propagate into trajectories,
// so the energy routines return a descriptive error instead.
const DegenGapTol = 1e-8

const (
	// zvecTol is the conjugate-gradient residual threshold for the
	// Z-vector equation, relative to max(1, ‖Θ‖).
	zvecTol = 1e-10
	// zvecMaxIter bounds the Z-vector CG iterations.
	zvecMaxIter = 200
)

// Options configures an MP2 calculation.
type Options struct {
	// SCS applies spin-component scaling (1.2·E_OS + E_SS/3) to the
	// reported total energy.
	SCS bool
}

// Result holds the MP2 energy decomposition and retains what the
// analytic gradient needs.
type Result struct {
	Ecorr   float64 // plain MP2 correlation energy
	EcorrOS float64 // opposite-spin component
	EcorrSS float64 // same-spin component
	ESCS    float64 // SCS-MP2 correlation energy
	ETotal  float64 // reference + correlation (SCS if Options.SCS)

	SCF *scf.Result

	// ZVecIters is the number of conjugate-gradient iterations the last
	// gradient's Z-vector solve took (0 before any gradient).
	ZVecIters int

	qov       *linalg.Tensor3 // Q^P_ia arranged (P, i, a) — the batched DF factor
	ws        *workspace      // gradient-stage MO blocks and scratch, built lazily (workspace.go)
	embedGrad []float64       // field-site gradient of the last Gradients call
}

// RIMP2 computes the RI-MP2 correlation energy from a converged RI-HF
// reference. The reference must have been run with scf.Options.UseRI.
// The transform and the gradient borrow the reference's three-index
// scratch (scf.DF.Scratch3), so a Result and its reference serve one
// goroutine at a time.
func RIMP2(ref *scf.Result, opts Options) (*Result, error) {
	if ref.DF == nil {
		return nil, errors.New("mp2: reference SCF has no RI intermediates (run with UseRI)")
	}
	if !ref.Converged {
		return nil, errors.New("mp2: reference SCF not converged")
	}
	nocc := ref.NOcc
	nvir := ref.NVirt()
	if nocc == 0 || nvir == 0 {
		// No correlated pairs: the MP2 correction vanishes identically.
		return &Result{SCF: ref, ETotal: ref.Energy}, nil
	}
	r := &Result{SCF: ref}
	r.buildQov()

	eos, ess, err := PairEnergiesBlocked(r.qov, ref.Eps, nocc, pairBlockFor(nocc, nvir))
	if err != nil {
		return nil, err
	}
	r.EcorrOS = eos
	r.EcorrSS = ess
	r.Ecorr = r.EcorrOS + r.EcorrSS
	r.ESCS = 1.2*r.EcorrOS + r.EcorrSS/3
	if opts.SCS {
		r.ETotal = ref.Energy + r.ESCS
	} else {
		r.ETotal = ref.Energy + r.Ecorr
	}
	return r, nil
}

// checkDenominators verifies the orbital-energy spectrum admits safe
// pair denominators: eps ascending with at least DegenGapTol between
// the highest occupied and lowest virtual level, which bounds every
// Δ_ijab = ε_i + ε_j − ε_a − ε_b away from zero by twice the gap.
func checkDenominators(eps []float64, nocc, nvir int) error {
	if nocc == 0 || nvir == 0 {
		return nil
	}
	if gap := eps[nocc] - eps[nocc-1]; gap < DegenGapTol {
		return fmt.Errorf("mp2: HOMO–LUMO gap %.3e Ha below %.0e — degenerate reference, "+
			"pair denominators vanish (ε_HOMO=%.6f, ε_LUMO=%.6f)", gap, DegenGapTol, eps[nocc-1], eps[nocc])
	}
	return nil
}

// pairBlockFor picks the occupied tile width of the blocked pair loop:
// wide enough that the (jblk·nvir)-square tile products are
// macro-tile-sized for the packed engine, clamped to the occupied
// count. The target tile edge balances GEMM efficiency (bigger is
// better) against the wasted j < i half of the diagonal tiles (a
// jblk/nocc work fraction).
func pairBlockFor(nocc, nvir int) int {
	if nvir <= 0 {
		return 1
	}
	jblk := (95 + nvir) / nvir // target tile edge ≈ 96 columns
	if jblk > nocc {
		jblk = nocc
	}
	if jblk < 1 {
		jblk = 1
	}
	return jblk
}

// PairEnergiesBlocked computes the opposite-spin and same-spin MP2 pair
// energy sums from a Qov tensor arranged (P, i, a): naux × nocc × nvir.
// eps holds orbital energies ascending with occupied levels in
// eps[:nocc] and virtuals from eps[nocc:]. The (i,j)-pair loop is tiled
// in both occupied indices: each upper-triangle tile of jblk×jblk pairs
// is contracted as one (jblk·nvir) × (jblk·nvir) GEMM over a pair of
// j-column strips instead of jblk² small nvir × nvir products, so the
// hot path stays inside large, square macro kernels. Permutational
// symmetry is preserved (only tiles with i0 ≤ j0 are formed, pairs with
// j < i inside diagonal tiles are skipped, off-diagonal pairs doubled);
// jblk ≤ 0 selects an automatic tile width. A near-degenerate reference
// (vanishing HOMO–LUMO gap) returns an error instead of silently
// propagating ±Inf/NaN energies.
func PairEnergiesBlocked(qov *linalg.Tensor3, eps []float64, nocc, jblk int) (eos, ess float64, err error) {
	naux, nvir := qov.N1, qov.N3
	if qov.N2 != nocc {
		return 0, 0, fmt.Errorf("mp2: Qov occupied dimension %d != nocc %d", qov.N2, nocc)
	}
	if nocc == 0 || nvir == 0 {
		return 0, 0, nil
	}
	if err := checkDenominators(eps, nocc, nvir); err != nil {
		return 0, 0, err
	}
	if jblk <= 0 {
		jblk = pairBlockFor(nocc, nvir)
	}
	if jblk > nocc {
		jblk = nocc
	}

	// Rows of the flat Qov are contiguous, so an occupied-column strip
	// is one memcpy per auxiliary row; the strip and tile buffers are
	// reused across blocks. The j-strip copy is hoisted outside the
	// i-tile loop, and the diagonal tile reuses it as both operands.
	qflat := qov.Flatten() // naux × (nocc·nvir)
	jstripBuf := make([]float64, naux*jblk*nvir)
	istripBuf := make([]float64, naux*jblk*nvir)
	vBuf := make([]float64, jblk*nvir*jblk*nvir)
	for j0 := 0; j0 < nocc; j0 += jblk {
		j1 := j0 + jblk
		if j1 > nocc {
			j1 = nocc
		}
		wj := (j1 - j0) * nvir
		jstrip := &linalg.Mat{Rows: naux, Cols: wj, Data: jstripBuf[:naux*wj]}
		for p := 0; p < naux; p++ {
			copy(jstrip.Row(p), qflat.Row(p)[j0*nvir:j1*nvir])
		}
		for i0 := 0; i0 <= j0; i0 += jblk {
			i1 := i0 + jblk
			if i1 > nocc {
				i1 = nocc
			}
			wi := (i1 - i0) * nvir
			istrip := jstrip
			if i0 != j0 {
				istrip = &linalg.Mat{Rows: naux, Cols: wi, Data: istripBuf[:naux*wi]}
				for p := 0; p < naux; p++ {
					copy(istrip.Row(p), qflat.Row(p)[i0*nvir:i1*nvir])
				}
			}
			// (ia|jb) for the whole tile: V = [B_i0 … B_i1−1]ᵀ ·
			// [B_j0 … B_j1−1] (paper Eq. 9), one square macro GEMM
			// instead of jblk² small ones.
			v := &linalg.Mat{Rows: wi, Cols: wj, Data: vBuf[:wi*wj]}
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, istrip, jstrip, 0, v)
			for i := i0; i < i1 && i < j1; i++ {
				iOff := (i - i0) * nvir
				jStart := i
				if jStart < j0 {
					jStart = j0
				}
				for j := jStart; j < j1; j++ {
					jOff := (j - j0) * nvir
					var eosP, essP float64
					for a := 0; a < nvir; a++ {
						ea := eps[i] + eps[j] - eps[nocc+a]
						row := v.Row(iOff + a)[jOff : jOff+nvir]
						for b := 0; b < nvir; b++ {
							de := ea - eps[nocc+b]
							vab := row[b]
							eosP += vab * vab / de
							essP += vab * (vab - v.At(iOff+b, jOff+a)) / de
						}
					}
					if i != j {
						eosP *= 2
						essP *= 2
					}
					eos += eosP
					ess += essP
				}
			}
		}
	}
	return eos, ess, nil
}

// PairEnergiesUnblocked is the pre-blocking reference implementation:
// one small nvir × nvir GEMM per (i,j) pair over the (i, P, a)-arranged
// B tensor. Retained as the correctness cross-check and the benchmark
// baseline the blocked loop is CI-gated against.
func PairEnergiesUnblocked(bov *linalg.Tensor3, eps []float64, nocc int) (eos, ess float64, err error) {
	nvir := bov.N3
	if bov.N1 != nocc {
		return 0, 0, fmt.Errorf("mp2: B tensor occupied dimension %d != nocc %d", bov.N1, nocc)
	}
	if nocc == 0 || nvir == 0 {
		return 0, 0, nil
	}
	if err := checkDenominators(eps, nocc, nvir); err != nil {
		return 0, 0, err
	}
	vij := linalg.NewMat(nvir, nvir)
	for i := 0; i < nocc; i++ {
		bi := bov.Slice(i) // naux × nvir
		for j := i; j < nocc; j++ {
			linalg.Gemm(linalg.Trans, linalg.NoTrans, 1, bi, bov.Slice(j), 0, vij)
			var eosP, essP float64
			for a := 0; a < nvir; a++ {
				ea := eps[i] + eps[j] - eps[nocc+a]
				row := vij.Row(a)
				for b := 0; b < nvir; b++ {
					de := ea - eps[nocc+b]
					v := row[b]
					eosP += v * v / de
					essP += v * (v - vij.At(b, a)) / de
				}
			}
			if i != j {
				eosP *= 2
				essP *= 2
			}
			eos += eosP
			ess += essP
		}
	}
	return eos, ess, nil
}

// buildQov forms the explicit Q^P_ia tensor, arranged (P, i, a), with
// two batched GEMMs over the flattened (naux·nbf) row dimension — the
// DF-MP2 macro-tile pipeline (SNIPPETS.md Snippets 2–3) replacing naux
// small per-P transforms:
//
//	T_Pμi  = Σ_ν B_Pμν C_νi     one (naux·nbf) × nbf × nocc GEMM
//	Q_Pia  = Σ_μ T_Pμi C_μa     one (naux·nocc) × nbf × nvir GEMM
//
// with a P-blockwise (μ,i) → (i,μ) transpose between the two (the
// reference's scf.DF.HalfBlock), all three on one auxiliary block at a
// time (scf.DF.EachBlock).
func (r *Result) buildQov() {
	ref := r.SCF
	co, cv := ref.COcc(), ref.CVirt()
	r.qov = linalg.NewTensor3(ref.Aux.N, ref.NOcc, ref.NVirt())
	ref.EachBlock(func(_, lo, hi int) {
		_, halfT := ref.HalfBlock(co, lo, hi) // (P, i, μ)
		linalg.GemmInline(linalg.NoTrans, linalg.NoTrans, 1, halfT.FlattenRows(), cv, 0, r.qov.Span(lo, hi).FlattenRows())
	})
}

// quarticLive counts the N⁴ scratch arrays currently alive in
// ConventionalMP2's transform and quarticPeak its high-water mark — the
// regression guard that the eager-release rewrite holds at most two
// quarter-transform arrays at once (the pre-fix code kept three alive
// through the whole energy loop).
var (
	quarticLive atomic.Int64
	quarticPeak atomic.Int64
)

func newQuartic(n int) []float64 {
	live := quarticLive.Add(1)
	for {
		p := quarticPeak.Load()
		if live <= p || quarticPeak.CompareAndSwap(p, live) {
			break
		}
	}
	return make([]float64, n*n*n*n)
}

func dropQuartic() { quarticLive.Add(-1) }

// QuarticScratchPeak returns the high-water mark of simultaneously live
// N⁴ scratch arrays since the last reset (test/benchmark hook).
func QuarticScratchPeak() int { return int(quarticPeak.Load()) }

// ResetQuarticScratchStats zeroes the quartic-scratch accounting.
func ResetQuarticScratchStats() {
	quarticLive.Store(0)
	quarticPeak.Store(0)
}

// ConventionalMP2 computes the MP2 correlation energy from stored
// four-center integrals with a naive O(N⁵) AO→MO transformation — the
// textbook path retained as the Table III / Fig. 3 baseline. Suitable
// for small systems only. All four quarter transforms are materialized,
// each scratch array released as soon as the next is built, so at most
// two N⁴ arrays are alive at any moment and the o²v² energy loop reads
// fully transformed integrals in O(1) instead of re-deriving the σ→s
// contraction per element.
func ConventionalMP2(ref *scf.Result, eri []float64) (float64, error) {
	if !ref.Converged {
		return 0, errors.New("mp2: reference SCF not converged")
	}
	n := ref.Bs.N
	if len(eri) != n*n*n*n {
		return 0, fmt.Errorf("mp2: ERI length %d != %d", len(eri), n*n*n*n)
	}
	nocc := ref.NOcc
	nvir := n - nocc
	if err := checkDenominators(ref.Eps, nocc, nvir); err != nil {
		return 0, err
	}
	if nocc == 0 || nvir == 0 {
		return 0, nil
	}
	c := ref.C
	// Quarter transformations, each O(N⁵).
	t1 := newQuartic(n) // (p ν | λ σ)
	for p := 0; p < n; p++ {
		for nu := 0; nu < n; nu++ {
			for la := 0; la < n; la++ {
				for si := 0; si < n; si++ {
					var s float64
					for mu := 0; mu < n; mu++ {
						s += c.At(mu, p) * eri[((mu*n+nu)*n+la)*n+si]
					}
					t1[((p*n+nu)*n+la)*n+si] = s
				}
			}
		}
	}
	t2 := newQuartic(n) // (p q | λ σ)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			for la := 0; la < n; la++ {
				for si := 0; si < n; si++ {
					var s float64
					for nu := 0; nu < n; nu++ {
						s += c.At(nu, q) * t1[((p*n+nu)*n+la)*n+si]
					}
					t2[((p*n+q)*n+la)*n+si] = s
				}
			}
		}
	}
	t1 = nil
	dropQuartic()
	t3 := newQuartic(n) // (p q | r σ)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			for rr := 0; rr < n; rr++ {
				for si := 0; si < n; si++ {
					var s float64
					for la := 0; la < n; la++ {
						s += c.At(la, rr) * t2[((p*n+q)*n+la)*n+si]
					}
					t3[((p*n+q)*n+rr)*n+si] = s
				}
			}
		}
	}
	t2 = nil
	dropQuartic()
	t4 := newQuartic(n) // (p q | r s)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			for rr := 0; rr < n; rr++ {
				for ss := 0; ss < n; ss++ {
					var v float64
					for si := 0; si < n; si++ {
						v += c.At(si, ss) * t3[((p*n+q)*n+rr)*n+si]
					}
					t4[((p*n+q)*n+rr)*n+ss] = v
				}
			}
		}
	}
	t3 = nil
	dropQuartic()
	defer dropQuartic()
	var e2 float64
	eps := ref.Eps
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			for a := 0; a < nvir; a++ {
				for b := 0; b < nvir; b++ {
					iajb := t4[((i*n+nocc+a)*n+j)*n+nocc+b]
					ibja := t4[((i*n+nocc+b)*n+j)*n+nocc+a]
					de := eps[i] + eps[j] - eps[nocc+a] - eps[nocc+b]
					e2 += iajb * (2*iajb - ibja) / de
				}
			}
		}
	}
	return e2, nil
}
