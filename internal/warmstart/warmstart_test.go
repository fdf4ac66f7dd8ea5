package warmstart

import (
	"sync"
	"testing"

	"github.com/fragmd/fragmd/internal/molecule"
)

func twoAtomGeom(dz float64) *molecule.Geometry {
	g := molecule.New()
	g.AddAtom(8, 0, 0, 0)
	g.AddAtom(1, 0, 0, 1.8+dz)
	return g
}

func stateFor(g *molecule.Geometry) *State {
	st := &State{}
	st.Snapshot(g)
	return st
}

func TestSnapshotCompatibility(t *testing.T) {
	g := twoAtomGeom(0)
	st := stateFor(g)
	if !st.Compatible(g) {
		t.Fatal("state incompatible with its own geometry")
	}
	// Moved atoms of the same elements stay compatible: a guess is
	// valid for any geometry of the same atom list.
	if !st.Compatible(twoAtomGeom(0.25)) {
		t.Error("state incompatible with a displaced geometry")
	}
	// Different element → incompatible.
	other := molecule.New()
	other.AddAtom(6, 0, 0, 0)
	other.AddAtom(1, 0, 0, 1.8)
	if st.Compatible(other) {
		t.Error("state compatible with different atoms")
	}
	// Different atom count → incompatible.
	short := molecule.New()
	short.AddAtom(8, 0, 0, 0)
	if st.Compatible(short) {
		t.Error("state compatible with truncated geometry")
	}
}

func TestCacheGuessAndEviction(t *testing.T) {
	c := NewCache()
	g := twoAtomGeom(0)
	if c.Guess("0", g) != nil {
		t.Fatal("guess from empty cache")
	}
	st := stateFor(g)
	c.Put("0", st)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if got := c.Guess("0", g); got != st {
		t.Fatal("guess did not return stored state")
	}
	// Incompatible geometry evicts the entry.
	other := molecule.New()
	other.AddAtom(6, 0, 0, 0)
	other.AddAtom(1, 0, 0, 1.8)
	if c.Guess("0", other) != nil {
		t.Fatal("incompatible guess returned")
	}
	if c.Len() != 0 {
		t.Fatal("incompatible entry not evicted")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 eviction", s)
	}
}

// The cache only ever serves guesses: however the geometry moves,
// Stats.Skips stays 0 and the latest Put is what Guess returns.
func TestCacheSkipDisabled(t *testing.T) {
	c := NewCache()
	for i := 0; i < 4; i++ {
		g := twoAtomGeom(0.01 * float64(i))
		st := stateFor(g)
		c.Put("0", st)
		if got := c.Guess("0", g); got != st {
			t.Fatalf("pass %d: guess did not return the latest state", i)
		}
	}
	if s := c.Stats(); s.Skips != 0 || s.Hits != 4 {
		t.Errorf("stats = %+v, want 4 hits and no skips", s)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	g := twoAtomGeom(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w%4))
			for i := 0; i < 200; i++ {
				c.Put(key, stateFor(g))
				c.Guess(key, g)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

// Export hands back every entry and Restore installs them into another
// cache, skipping nil states — the checkpoint round trip.
func TestCacheExportRestore(t *testing.T) {
	c := NewCache()
	g := twoAtomGeom(0)
	c.Put("a", stateFor(g))
	c.Put("b", stateFor(g))
	states := c.Export()
	states["nil"] = nil
	d := NewCache()
	d.Restore(states)
	if d.Len() != 2 || d.Guess("a", g) != states["a"] {
		t.Errorf("restored %d entries, want 2 sharing the exported states", d.Len())
	}
}
