package potential

import (
	"reflect"
	"testing"

	"github.com/fragmd/fragmd/internal/scf"
)

// Spec.Build must construct exactly the evaluators the call sites it
// replaced built by hand, so energies stay bit-identical: the CLI's
// RI-MP2 and the handshake's four potentials.
func TestSpecBuildMatchesHandBuiltEvaluators(t *testing.T) {
	cases := []struct {
		spec Spec
		want Evaluator
	}{
		{Spec{Potential: "rimp2", Basis: "dzp", SCS: true, RIScreen: 1e-10},
			&RIMP2{Basis: "dzp", SCS: true, SCFOpts: scf.Options{RIScreenThresh: 1e-10}}},
		{Spec{Potential: "rimp2", Basis: "sto-3g", RIScreen: -1},
			&RIMP2{Basis: "sto-3g", SCFOpts: scf.Options{RIScreenThresh: -1}}},
		{Spec{Potential: "hf", Basis: "sto-3g"}, &HF{Basis: "sto-3g", UseRI: true}},
		{Spec{Potential: "hf", Basis: "sto-3g", RIScreen: 1e-9},
			&HF{Basis: "sto-3g", UseRI: true, SCFOpts: scf.Options{RIScreenThresh: 1e-9}}},
		{Spec{Potential: "hf4c", Basis: "sto-3g"}, &HF{Basis: "sto-3g"}},
		{Spec{Potential: "lj"}, &LennardJones{}},
	}
	for _, c := range cases {
		got, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v built %+v, want %+v", c.spec, got, c.want)
		}
	}
	if _, err := (Spec{Potential: "dft"}).Build(); err == nil {
		t.Error("unknown potential accepted")
	}

	// Fingerprints are equal exactly when Build's evaluators are: fields
	// an evaluator ignores must not split them, fields it reads must.
	for _, c := range []struct {
		a, b  Spec
		share bool
	}{
		{Spec{Potential: "lj"}, Spec{Potential: "lj", Basis: "dzp", SCS: true, RIScreen: 1e-9}, true},
		{Spec{Potential: "lj", Basis: "sto-3g"}, Spec{Potential: "lj", RIScreen: -1}, true},
		{Spec{Potential: "hf4c", Basis: "sto-3g"}, Spec{Potential: "hf4c", Basis: "sto-3g", SCS: true, RIScreen: 1e-9}, true},
		{Spec{Potential: "hf", Basis: "sto-3g", RIScreen: 1e-9}, Spec{Potential: "hf", Basis: "sto-3g", SCS: true, RIScreen: 1e-9}, true},
		{Spec{Potential: "rimp2", Basis: "sto-3g"}, Spec{Potential: "rimp2", Basis: "sto-3g", SCS: true}, false},
		{Spec{Potential: "rimp2", Basis: "sto-3g"}, Spec{Potential: "rimp2", Basis: "sto-3g", RIScreen: 1e-9}, false},
		{Spec{Potential: "rimp2", Basis: "sto-3g"}, Spec{Potential: "rimp2", Basis: "dzp"}, false},
		{Spec{Potential: "hf", Basis: "sto-3g"}, Spec{Potential: "hf", Basis: "sto-3g", RIScreen: 1e-9}, false},
		{Spec{Potential: "hf4c", Basis: "sto-3g"}, Spec{Potential: "hf4c", Basis: "dzp"}, false},
		{Spec{Potential: "hf", Basis: "sto-3g"}, Spec{Potential: "hf4c", Basis: "sto-3g"}, false},
		{Spec{Potential: "lj"}, Spec{Potential: "hf4c"}, false},
	} {
		if got := c.a.Fingerprint() == c.b.Fingerprint(); got != c.share {
			t.Errorf("%+v and %+v: shared fingerprint %t, want %t", c.a, c.b, got, c.share)
		}
		ea, err := c.a.Build()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := c.b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if same := reflect.DeepEqual(ea, eb); same != c.share {
			t.Errorf("%+v and %+v: identical evaluators %t, want %t", c.a, c.b, same, c.share)
		}
	}
}
