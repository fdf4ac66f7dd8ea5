// Package scf implements restricted closed-shell Hartree-Fock with two
// Fock-build back ends:
//
//   - RI-HF (paper Eq. 8): the two-electron integrals are factorised
//     through an auxiliary basis, B^P_μν = Σ_Q (μν|Q) J^{-1/2}_QP (any
//     factor W with WᵀW = J⁻¹ serves as J^{-1/2}; see DF, df.go), and
//     both Coulomb and exchange matrices become short sequences of
//     GEMMs. No four-center integrals are computed anywhere on this path.
//   - Conventional direct SCF: recomputed four-center integrals with
//     Schwarz screening — the baseline whose elimination is the paper's
//     innovation (ii), retained for Fig. 3 and Table III comparisons.
//
// Analytic nuclear gradients are provided for both paths (gradient.go).
package scf

import (
	"errors"
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// Options configures an SCF run.
type Options struct {
	// UseRI selects the RI-HF Fock build; false means conventional
	// direct SCF with four-center integrals.
	UseRI bool
	// StoredERI keeps the full (μν|λσ) tensor in memory on the
	// conventional path (in-core SCF) instead of recomputing integrals
	// every iteration — the classic small-molecule CPU-package mode used
	// as the Table III baseline. Ignored when UseRI is set.
	StoredERI bool
	// AuxOpts controls auxiliary basis generation for the RI path.
	AuxOpts basis.AuxOptions
	// ConvE is the energy convergence threshold (default 1e-10 Ha).
	ConvE float64
	// ConvErr is the threshold on the max |FDS−SDF| element
	// (default 1e-8).
	ConvErr float64
	// RIScreenThresh is the Cauchy–Schwarz threshold for three-center
	// (μν|P) generation on the RI path: bra shell pairs whose bound
	// Q_μν·Q_P falls below it are skipped, so distant-pair integral
	// work vanishes while retained integrals stay exact (max elementwise
	// error below the threshold). 0 selects the 1e-12 default; any
	// negative value disables screening entirely.
	RIScreenThresh float64
	// GuessDensity, when non-nil and dimensioned nbf×nbf, replaces the
	// core-Hamiltonian initial guess — the warm-start path for AIMD,
	// where the previous step's converged density of the same fragment
	// is an excellent starting point. The SCF still iterates to the
	// configured thresholds, so the converged result is unchanged;
	// only the iteration count drops.
	GuessDensity *linalg.Mat
	// GuessC optionally supplies the MO coefficients the guess density
	// was built from; its occupied block then seeds the RI exchange
	// build directly. Without it the occupied factor is recovered from
	// the density's spectral decomposition (an O(nbf³) EigSym), which
	// is exact for any D of the 2·C·Cᵀ form. Ignored unless
	// GuessDensity is set.
	GuessC *linalg.Mat
	// EmbedCharges places the SCF in an external point-charge field
	// (electrostatic embedding, EE-MBE phase 2): the electron–field
	// attraction joins the core Hamiltonian and the classical
	// nuclear–field interaction the total energy (Result.EField). The
	// charge–charge energy among the field sites is never included.
	// Gradients gain analytic contributions on both the atoms and the
	// field sites (Result.Gradients), treating the charge *values* as
	// geometry-independent constants.
	EmbedCharges *integrals.PointCharges
}

const (
	// maxIter bounds the SCF iterations.
	maxIter = 128
	// diisLen is the DIIS history length.
	diisLen = 8
	// schwarzThresh screens shell quartets on the conventional path.
	schwarzThresh = 1e-12
)

func (o *Options) fill() {
	if o.ConvE == 0 {
		o.ConvE = 1e-10
	}
	if o.ConvErr == 0 {
		o.ConvErr = 1e-8
	}
	if o.RIScreenThresh == 0 {
		o.RIScreenThresh = 1e-12
	}
}

// Result holds a converged SCF state plus the intermediates retained for
// the MP2 stage (the paper avoids recomputing three-center integrals by
// keeping B resident; we do the same).
type Result struct {
	Energy float64 // total HF energy (Ha), including EField
	Eelec  float64
	Enuc   float64
	// EField is the classical nuclear–field interaction energy when
	// Options.EmbedCharges is set (0 in vacuum); the electron–field
	// attraction is part of Eelec through the core Hamiltonian.
	EField    float64
	C         *linalg.Mat // MO coefficients, columns are orbitals
	Eps       []float64   // orbital energies, ascending
	D         *linalg.Mat // AO density, occupation-2 convention
	NOcc      int
	Converged bool
	Iters     int

	Geom *molecule.Geometry
	Bs   *basis.Set
	S    *linalg.Mat
	H    *linalg.Mat

	// RI factorisation and its contractions (nil on the conventional
	// path, df.go).
	*DF

	// Schwarz holds the shell-pair Cauchy–Schwarz bounds: always set on
	// the conventional path, and on the RI path whenever three-center
	// screening is enabled (Options.RIScreenThresh > 0).
	Schwarz *linalg.Mat
	// ERI is the stored four-center tensor when Options.StoredERI was
	// set (reused by the conventional-MP2 baseline).
	ERI []float64

	opts Options
}

// Opts returns the options the SCF was run with (for downstream reuse).
func (r *Result) Opts() Options { return r.opts }

// NVirt returns the number of virtual orbitals.
func (r *Result) NVirt() int { return r.Bs.N - r.NOcc }

// COcc returns the occupied-orbital coefficient block (nbf × nocc).
func (r *Result) COcc() *linalg.Mat {
	c := linalg.NewMat(r.Bs.N, r.NOcc)
	for mu := 0; mu < r.Bs.N; mu++ {
		copy(c.Row(mu), r.C.Row(mu)[:r.NOcc])
	}
	return c
}

// CVirt returns the virtual-orbital coefficient block (nbf × nvirt).
func (r *Result) CVirt() *linalg.Mat {
	nv := r.NVirt()
	c := linalg.NewMat(r.Bs.N, nv)
	for mu := 0; mu < r.Bs.N; mu++ {
		copy(c.Row(mu), r.C.Row(mu)[r.NOcc:])
	}
	return c
}

// requireFinite rejects a matrix about to be factorised that holds a NaN
// or an infinity — what a non-finite coordinate produces —
// before the eigensolver and the SCF loop can spend time on it.
func requireFinite(what string, m *linalg.Mat) error {
	for i, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scf: %s has the non-finite entry %g at (%d,%d): check the geometry for NaN or infinite coordinates",
				what, v, i/m.Cols, i%m.Cols)
		}
	}
	return nil
}

// eigFailed turns linalg.EigSym's failure marker — a result filled with
// NaN, which is all it returns when its QL iteration does not converge or
// its input is not finite — into an error naming the matrix. first is the
// spectrum, or the data of a matrix built from it.
func eigFailed(what string, first []float64) error {
	if len(first) > 0 && math.IsNaN(first[0]) {
		return fmt.Errorf("scf: eigensolver failed on the %s: a non-finite entry, or the QL iteration did not converge", what)
	}
	return nil
}

// oneElectron sets S, H (with the point-charge field's attraction when
// there is one) and EField, and returns the orthogonaliser X = S^{-1/2}.
func (res *Result) oneElectron() (*linalg.Mat, error) {
	res.S = integrals.Overlap(res.Bs)
	res.H = integrals.Hcore(res.Bs, res.Geom)
	if pc := res.opts.EmbedCharges; pc.N() > 0 {
		res.H.AxpyMat(1, integrals.PointChargeMatrix(res.Bs, pc))
		res.EField = integrals.NuclearFieldEnergy(res.Geom, pc)
	}
	if err := requireFinite("overlap matrix S", res.S); err != nil {
		return nil, err
	}
	x, _ := linalg.InvSqrtSym(res.S, 1e-10)
	return x, eigFailed("overlap matrix S", x.Data)
}

// RHF runs a restricted closed-shell Hartree-Fock calculation.
func RHF(g *molecule.Geometry, bs *basis.Set, opts Options) (*Result, error) {
	opts.fill()
	nelec := g.NumElectrons()
	if nelec%2 != 0 {
		return nil, fmt.Errorf("scf: odd electron count %d (closed-shell RHF only)", nelec)
	}
	nocc := nelec / 2
	if nocc > bs.N {
		return nil, fmt.Errorf("scf: %d occupied orbitals exceed %d basis functions", nocc, bs.N)
	}

	res := &Result{Geom: g, Bs: bs, NOcc: nocc, Enuc: g.NuclearRepulsion(), opts: opts}
	var x *linalg.Mat
	setUp := func() (err error) {
		x, err = res.oneElectron()
		return err
	}
	var err error
	if opts.UseRI {
		res.DF, res.Schwarz, err = newDF(g, bs, opts, setUp)
	} else {
		err = setUp()
	}
	if err != nil {
		return nil, err
	}

	var fockBuild func(d *linalg.Mat, co *linalg.Mat) *linalg.Mat
	if opts.UseRI {
		fockBuild = func(d, co *linalg.Mat) *linalg.Mat { return res.fock(res.H, d, co) }
	} else if opts.StoredERI {
		res.Schwarz = integrals.SchwarzShellPairs(bs)
		eri := integrals.FourCenterAll(bs)
		res.ERI = eri
		n := bs.N
		fockBuild = func(d, co *linalg.Mat) *linalg.Mat {
			f := res.H.Clone()
			for mu := 0; mu < n; mu++ {
				for nu := 0; nu < n; nu++ {
					var s float64
					base := (mu*n + nu) * n * n
					for la := 0; la < n; la++ {
						dRow := d.Row(la)
						kBase := ((mu*n+la)*n + nu) * n
						jRow := eri[base+la*n : base+la*n+n]
						kRow := eri[kBase : kBase+n]
						for si := 0; si < n; si++ {
							s += dRow[si] * (jRow[si] - 0.5*kRow[si])
						}
					}
					f.Add(mu, nu, s)
				}
			}
			return f
		}
	} else {
		res.Schwarz = integrals.SchwarzShellPairs(bs)
		fockBuild = func(d, co *linalg.Mat) *linalg.Mat {
			g2 := integrals.FockDirect(bs, d, res.Schwarz, schwarzThresh)
			f := res.H.Clone()
			f.AxpyMat(1, g2)
			return f
		}
	}

	// Initial guess: injected density (warm start) or core Hamiltonian.
	var c, d, co *linalg.Mat
	var eps []float64
	if gd := opts.GuessDensity; gd != nil && gd.Rows == bs.N && gd.Cols == bs.N {
		d = gd.Clone()
		if gc := opts.GuessC; gc != nil && gc.Rows == bs.N && gc.Cols >= nocc {
			co = occBlock(gc, nocc)
		} else {
			if co, err = occFromDensity(d, nocc); err != nil {
				return nil, err
			}
		}
	} else {
		if c, eps, err = solveFock(res.H, x); err != nil {
			return nil, err
		}
		d = densityFromC(c, nocc)
		co = occBlock(c, nocc)
	}

	diis := newDIIS(diisLen)
	var ePrev float64
	for iter := 1; iter <= maxIter; iter++ {
		f := fockBuild(d, co)
		eElec := 0.5 * (linalg.Dot(d, res.H) + linalg.Dot(d, f))

		// DIIS error FDS − SDF.
		fd := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, f, d)
		fds := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, fd, res.S)
		sd := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, res.S, d)
		sdf := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, sd, f)
		errMat := fds.Clone()
		errMat.AxpyMat(-1, sdf)
		maxErr := errMat.MaxAbs()

		f = diis.extrapolate(f, errMat)
		if c, eps, err = solveFock(f, x); err != nil {
			return nil, err
		}
		d = densityFromC(c, nocc)
		co = occBlock(c, nocc)

		if math.Abs(eElec-ePrev) < opts.ConvE && maxErr < opts.ConvErr {
			res.Eelec = eElec
			res.Energy = eElec + res.Enuc + res.EField
			res.C = c
			res.Eps = eps
			res.D = d
			res.Converged = true
			res.Iters = iter
			return res, nil
		}
		ePrev = eElec
	}
	res.Converged = false
	res.Iters = maxIter
	res.C = c
	res.Eps = eps
	res.D = d
	res.Eelec = ePrev
	res.Energy = ePrev + res.Enuc + res.EField
	return res, errors.New("scf: not converged")
}

// solveFock diagonalises F in the orthonormalised basis: F' = XᵀFX,
// C = X C'. Returns MO coefficients and energies (ascending).
func solveFock(f, x *linalg.Mat) (*linalg.Mat, []float64, error) {
	fx := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, f, x)
	fp := linalg.MatMul(linalg.Trans, linalg.NoTrans, x, fx)
	fp.Sym()
	eps, cp := linalg.EigSym(fp)
	if err := eigFailed("Fock matrix", eps); err != nil {
		return nil, nil, err
	}
	c := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, x, cp)
	return c, eps, nil
}

// densityFromC returns D = 2 Σ_i^occ C_i C_iᵀ.
func densityFromC(c *linalg.Mat, nocc int) *linalg.Mat {
	n := c.Rows
	d := linalg.NewMat(n, n)
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			var s float64
			for i := 0; i < nocc; i++ {
				s += c.At(mu, i) * c.At(nu, i)
			}
			d.Set(mu, nu, 2*s)
		}
	}
	return d
}

// occFromDensity recovers an occupied-orbital factor from an AO density:
// D = 2·C_o·C_oᵀ has rank nocc, so its spectral decomposition D = U Λ Uᵀ
// yields C'_o = U·sqrt(Λ/2) over the top nocc eigenvalues with
// C'_o C'_oᵀ = D/2 exactly. Any such factor builds the same Fock matrix
// (J and K depend on D only), so the guess density alone suffices for
// the RI exchange path.
func occFromDensity(d *linalg.Mat, nocc int) (*linalg.Mat, error) {
	w, v := linalg.EigSym(d) // ascending eigenvalues
	if err := eigFailed("guess density", w); err != nil {
		return nil, err
	}
	n := d.Rows
	co := linalg.NewMat(n, nocc)
	for i := 0; i < nocc; i++ {
		col := n - 1 - i // largest eigenvalues last
		lam := w[col]
		if lam < 0 {
			lam = 0
		}
		s := math.Sqrt(lam / 2)
		for mu := 0; mu < n; mu++ {
			co.Set(mu, i, s*v.At(mu, col))
		}
	}
	return co, nil
}

func occBlock(c *linalg.Mat, nocc int) *linalg.Mat {
	o := linalg.NewMat(c.Rows, nocc)
	for mu := 0; mu < c.Rows; mu++ {
		copy(o.Row(mu), c.Row(mu)[:nocc])
	}
	return o
}

// diis implements Pulay's direct inversion in the iterative subspace.
type diis struct {
	maxLen int
	focks  []*linalg.Mat
	errs   []*linalg.Mat
}

func newDIIS(n int) *diis { return &diis{maxLen: n} }

// extrapolate mixes the Fock history to minimise the residual norm.
// On any numerical failure it returns the input Fock unchanged.
func (d *diis) extrapolate(f, errMat *linalg.Mat) *linalg.Mat {
	d.focks = append(d.focks, f.Clone())
	d.errs = append(d.errs, errMat.Clone())
	if len(d.focks) > d.maxLen {
		d.focks = d.focks[1:]
		d.errs = d.errs[1:]
	}
	n := len(d.focks)
	if n < 2 {
		return f
	}
	// Build the DIIS system with the Lagrange row/column.
	b := linalg.NewMat(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, linalg.Dot(d.errs[i], d.errs[j]))
		}
		b.Set(i, n, -1)
		b.Set(n, i, -1)
	}
	rhs := linalg.NewMat(n+1, 1)
	rhs.Set(n, 0, -1)
	sol, err := linalg.Solve(b, rhs)
	if err != nil {
		return f
	}
	out := linalg.NewMat(f.Rows, f.Cols)
	for i := 0; i < n; i++ {
		out.AxpyMat(sol.At(i, 0), d.focks[i])
	}
	return out
}
