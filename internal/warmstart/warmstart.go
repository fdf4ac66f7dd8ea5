// Package warmstart implements incremental MBE evaluation across AIMD
// time steps (the paper's "reuse between steps" lever): fragments move
// only slightly per step, so the converged SCF state of a polymer is an
// excellent initial guess for its next evaluation.
//
// There is one reuse level, and it is exact: Cache.Guess returns the
// previous converged state of a polymer; stateful evaluators inject its
// density as the SCF initial guess (scf.Options.GuessDensity). The SCF
// still iterates to the same convergence thresholds, so the converged
// energy and gradient are unchanged to within those thresholds — only
// the iteration count drops. Every polymer is evaluated at every step;
// nothing hands back a stale energy or gradient.
//
// States are keyed by polymer identity (fragment.Polymer.Key) and
// validated against the fragment's atom list and basis metadata before
// any reuse; an incompatible entry is evicted. The cache is safe for
// concurrent use by the scheduler's worker pool.
package warmstart

import (
	"maps"
	"sync"

	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
)

// State is the reusable electronic state of one fragment evaluation,
// the warm-start guess for the polymer's next SCF.
type State struct {
	// Zs are the atomic numbers of the evaluated geometry, in order —
	// the identity check of Compatible.
	Zs []int

	// Converged electronic state and fitted-basis metadata. D is the AO
	// density (occupation-2 convention), C the MO coefficients. Basis,
	// NBf and NOcc are validated before the state is reused as an SCF
	// guess; NAux (the auxiliary-basis size the state was fitted with)
	// is diagnostic only — a density converged under a different
	// auxiliary basis is still a valid guess.
	D     *linalg.Mat
	C     *linalg.Mat
	Basis string
	NBf   int
	NAux  int
	NOcc  int

	// SCFIters is the number of SCF iterations the evaluation took —
	// the quantity the warm start is meant to shrink.
	SCFIters int
}

// Snapshot records the atom list the state was computed for.
func (s *State) Snapshot(g *molecule.Geometry) {
	s.Zs = make([]int, g.N())
	for i, a := range g.Atoms {
		s.Zs[i] = a.Z
	}
}

// Compatible reports whether the state was computed for the same atom
// list (count and atomic numbers, in order) as g.
func (s *State) Compatible(g *molecule.Geometry) bool {
	if g.N() != len(s.Zs) {
		return false
	}
	for i, a := range g.Atoms {
		if a.Z != s.Zs[i] {
			return false
		}
	}
	return true
}

// Stats are cumulative cache counters.
type Stats struct {
	// Hits counts Guess calls that returned a usable previous state.
	Hits int
	// Misses counts Guess calls with no usable state.
	Misses int
	// Skips is always 0: the cache never stands in for an evaluation.
	// The field is kept for the benchmark harness, which reads it.
	Skips int
	// Evictions counts entries dropped for incompatibility.
	Evictions int
}

// Cache holds per-polymer states across time steps, keyed by
// fragment.Polymer.Key strings. It is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*State
	stats   Stats
}

// NewCache creates an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*State{}}
}

// Len returns the number of cached polymer states.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Guess returns the cached state for key as a warm-start guess, or nil
// when absent or incompatible with g (incompatible entries are
// evicted — the polymer's composition changed).
func (c *Cache) Guess(key string, g *molecule.Geometry) *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil
	}
	if !st.Compatible(g) {
		delete(c.entries, key)
		c.stats.Evictions++
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	return st
}

// Put stores the state of a fresh evaluation for key.
func (c *Cache) Put(key string, st *State) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = st
}

// Export snapshots the cached states for checkpointing (package
// resilience). The states themselves are shared, not copied — they are
// treated as immutable once Put.
func (c *Cache) Export() map[string]*State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.entries)
}

// Restore installs checkpointed states. Existing entries under the same
// keys are replaced; others are kept.
func (c *Cache) Restore(states map[string]*State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, st := range states {
		if st != nil {
			c.entries[k] = st
		}
	}
}
