package potential

import (
	"fmt"

	"github.com/fragmd/fragmd/internal/scf"
)

// Spec names an evaluator configuration portably — the one place a
// potential name becomes an evaluator. The CLI builds from it, the
// netcoord coordinator ships it to workers in the Welcome message, and
// serve keys its shared warm-start pools on it.
type Spec struct {
	// Potential selects the evaluator: "rimp2", "hf", "hf4c"
	// (conventional four-center Fock build) or "lj".
	Potential string
	// Basis is the orbital basis ("sto-3g" or "dzp"; ab initio
	// potentials only).
	Basis string
	// SCS applies spin-component scaling to reported RI-MP2 energies.
	SCS bool
	// RIScreen is the Schwarz screening threshold for three-center
	// integrals (0 = default, negative disables; see scf.Options).
	RIScreen float64
}

// Build constructs the evaluator the spec describes.
func (s Spec) Build() (Evaluator, error) {
	switch s.Potential {
	case "rimp2":
		return &RIMP2{Basis: s.Basis, SCS: s.SCS, SCFOpts: scf.Options{RIScreenThresh: s.RIScreen}}, nil
	case "hf":
		return &HF{Basis: s.Basis, UseRI: true, SCFOpts: scf.Options{RIScreenThresh: s.RIScreen}}, nil
	case "hf4c":
		return &HF{Basis: s.Basis}, nil
	case "lj":
		return &LennardJones{}, nil
	default:
		return nil, fmt.Errorf("potential: unknown potential %q (want rimp2, hf, hf4c or lj)", s.Potential)
	}
}

// Canonical returns s with every field Build does not read for s's
// potential zeroed: Basis, SCS and RIScreen under "lj", SCS and
// RIScreen under "hf4c", SCS under "hf". Specs with equal canonical
// forms build identical evaluators, so the canonical form is what
// physics comparisons (Fingerprint, serve's fleet admission) compare.
func (s Spec) Canonical() Spec {
	switch s.Potential {
	case "lj":
		return Spec{Potential: s.Potential}
	case "hf4c":
		return Spec{Potential: s.Potential, Basis: s.Basis}
	case "hf":
		s.SCS = false
	}
	return s
}

// Fingerprint is a stable textual identity of the physics: specs build
// identical evaluators exactly when their fingerprints are equal.
func (s Spec) Fingerprint() string {
	s = s.Canonical()
	return fmt.Sprintf("%s|%s|%t|%g", s.Potential, s.Basis, s.SCS, s.RIScreen)
}
