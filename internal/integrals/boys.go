// Package integrals evaluates all molecular integrals over contracted
// Cartesian Gaussians with the McMurchie–Davidson (MD) scheme: overlap,
// kinetic, nuclear attraction, two-center (P|Q), three-center (μν|P) and
// four-center (μν|λσ) electron-repulsion integrals, plus the analytic
// nuclear derivatives of every class.
//
// The derivative routines contract the derivative integrals with
// caller-supplied coefficient matrices on the fly, accumulating straight
// into the molecular gradient without storing derivative tensors — the
// design the paper adopts for its GPU pipeline (§V-E: "integral
// derivatives ... calculated and accumulated into the final gradient on
// the fly, without needing to be stored").
//
// Derivatives with respect to the final center of each integral class are
// obtained from translational invariance (the sum of all center
// derivatives vanishes), so only bra-side raise/lower recursions
// (∂/∂A x^i = 2a·x^{i+1} − i·x^{i-1}) are implemented.
package integrals

import "math"

// The Boys function F_m(x) = ∫₀¹ t^{2m}·e^{−x·t²} dt is read off a table
// of F_0 … F_{boysMaxM+boysTaylor−1} at the nodes x_i = i·h of [0, 35]:
// F_m(x) is a Taylor step from the nearest node, using dF_m/dx = −F_{m+1},
//
//	F_m(x) = Σ_{k<boysTaylor} F_{m+k}(x_i)·(x_i − x)^k / k!,
//
// whose truncation error is below F_m·(h/2)^7/7! ≈ 4e-17·F_m, and the
// lower orders follow by the stable downward recursion. The table is
// generated at package initialisation from boysSeries, which stays as the
// oracle the table is tested against.
const (
	boysGridMax = 35 // the table covers 0 ≤ x ≤ boysGridMax
	boysPerUnit = 32 // nodes per unit of x: h = 1/32
	boysTaylor  = 7  // Taylor terms per evaluation
	boysNodes   = boysGridMax*boysPerUnit + 1
	// boysMaxM is the largest order any kernel asks for: a four-centre
	// derivative over shells of the largest angular momentum cart()
	// covers, (7+1)+7+7+7.
	boysMaxM = 29
	boysCols = boysMaxM + boysTaylor // orders stored per node
)

// boysTable[i·boysCols+k] = F_k(i/boysPerUnit).
var boysTable = func() []float64 {
	tab := make([]float64, boysNodes*boysCols)
	for i := 0; i < boysNodes; i++ {
		boysSeries(boysCols-1, float64(i)/boysPerUnit, tab[i*boysCols:][:boysCols])
	}
	return tab
}()

// boys fills out[0..m] with Boys function values F_k(x), m ≤ boysMaxM.
//
// Three regimes: the table for 0 ≤ x ≤ 35; the asymptotic form with
// upward recursion for larger finite x; and NaN in every entry for an
// argument no Gaussian integral produces — NaN, ±Inf or x < 0 — so a
// non-finite geometry surfaces as non-finite integrals, which the SCF
// refuses, rather than as an index out of the table.
func boys(m int, x float64, out []float64) {
	switch {
	case x >= 0 && x <= boysGridMax:
		i := int(x*boysPerUnit + 0.5)
		d := float64(i)/boysPerUnit - x
		f := boysTable[i*boysCols+m:][:boysTaylor]
		out[m] = f[0] + d*(f[1]+d*(1.0/2)*(f[2]+d*(1.0/3)*(f[3]+d*(1.0/4)*(f[4]+d*(1.0/5)*(f[5]+d*(1.0/6)*f[6])))))
		// Downward recursion is numerically stable.
		ex := math.Exp(-x)
		for k := m - 1; k >= 0; k-- {
			out[k] = (2*x*out[k+1] + ex) / float64(2*k+1)
		}
	case x > boysGridMax && x <= math.MaxFloat64:
		ex := math.Exp(-x)
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		for k := 0; k < m; k++ {
			out[k+1] = (float64(2*k+1)*out[k] - ex) / (2 * x)
		}
	default:
		for k := 0; k <= m; k++ {
			out[k] = math.NaN()
		}
	}
}

// boysSeries fills out[0..m] from the convergent ascending series
//
//	F_m(x) = e^{−x} Σ_k (2x)^k / ((2m+1)(2m+3)…(2m+2k+1))
//
// followed by downward recursion: the generator of boysTable and the
// oracle its evaluations are tested against. It converges within its 300
// terms for 0 ≤ x ≲ 100.
func boysSeries(m int, x float64, out []float64) {
	ex := math.Exp(-x)
	term := 1 / float64(2*m+1)
	sum := term
	for k := 1; k < 300; k++ {
		term *= 2 * x / float64(2*m+2*k+1)
		sum += term
		if term < 1e-17*sum {
			break
		}
	}
	out[m] = ex * sum
	for k := m - 1; k >= 0; k-- {
		out[k] = (2*x*out[k+1] + ex) / float64(2*k+1)
	}
}
