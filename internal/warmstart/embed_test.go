package warmstart

import (
	"testing"

	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// Warm-start guesses stay valid across field changes (the SCF still
// converges to its own thresholds): a state holds no field, and Guess
// checks only the atom list.
func TestGuessIgnoresField(t *testing.T) {
	g := molecule.Water()
	c := NewCache()
	st := &State{D: linalg.NewMat(1, 1), NBf: 1, NOcc: 1}
	st.Snapshot(g)
	c.Put("p", st)
	if got := c.Guess("p", g); got != st {
		t.Fatal("guess refused for an embedded state")
	}
}
