// Package md implements velocity-Verlet molecular dynamics in the
// microcanonical (NVE) ensemble — the integrator behind the paper's
// AIMD trajectories (§VII-A) — plus Maxwell–Boltzmann velocity
// initialisation and energy-conservation diagnostics.
//
// All quantities are in Hartree atomic units; chem provides the fs ↔
// atomic-time conversions.
package md

import (
	"errors"
	"math"
	"math/rand"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/molecule"
)

// ForceProvider supplies the potential energy and nuclear gradient of a
// full system geometry.
type ForceProvider interface {
	Forces(g *molecule.Geometry) (energy float64, grad []float64, err error)
}

// ForceFunc adapts a function to the ForceProvider interface.
type ForceFunc func(g *molecule.Geometry) (float64, []float64, error)

// Forces implements ForceProvider.
func (f ForceFunc) Forces(g *molecule.Geometry) (float64, []float64, error) { return f(g) }

// State is a dynamical state: positions (inside Geom), velocities and
// masses, all in atomic units.
type State struct {
	Geom   *molecule.Geometry
	Vel    [][3]float64
	Masses []float64 // mₑ
	// Forces, when non-nil, holds the potential energy and gradient the
	// last force evaluation found. Only the asynchronous engine (which
	// leaves its final step's here and continues the next run from them)
	// and the checkpoint loader write it; it is state, not a setting.
	Forces *Forces
}

// Forces is a potential energy and nuclear gradient together with the
// positions they were evaluated at.
type Forces struct {
	Epot float64
	Grad []float64 // 3N, Ha/Bohr
	At   []float64 // 3N positions, Bohr
}

// ForcesHere returns s.Forces when they were evaluated at s's current
// positions — At equal to them bit for bit and every length 3N — and
// nil otherwise, so forces left behind by a run never outlive a move.
func (s *State) ForcesHere() *Forces {
	f := s.Forces
	n := 3 * s.Geom.N()
	if f == nil || len(f.Grad) != n || len(f.At) != n {
		return nil
	}
	for i, a := range s.Geom.Atoms {
		for k := 0; k < 3; k++ {
			if math.Float64bits(a.Pos[k]) != math.Float64bits(f.At[3*i+k]) {
				return nil
			}
		}
	}
	return f
}

// NewState builds a state with zero velocities and standard atomic
// masses.
func NewState(g *molecule.Geometry) *State {
	s := &State{Geom: g, Vel: make([][3]float64, g.N()), Masses: make([]float64, g.N())}
	for i, a := range g.Atoms {
		s.Masses[i] = chem.MassAMU(a.Z) * chem.AmuToElectronMass
	}
	return s
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{Geom: s.Geom.Clone()}
	c.Vel = append([][3]float64(nil), s.Vel...)
	c.Masses = append([]float64(nil), s.Masses...)
	if f := s.Forces; f != nil {
		c.Forces = &Forces{Epot: f.Epot, Grad: append([]float64(nil), f.Grad...), At: append([]float64(nil), f.At...)}
	}
	return c
}

// KineticEnergy returns ½ Σ m v² in Hartree.
func (s *State) KineticEnergy() float64 {
	var ke float64
	for i, v := range s.Vel {
		ke += 0.5 * s.Masses[i] * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in Kelvin
// (3N degrees of freedom).
func (s *State) Temperature() float64 {
	n := len(s.Vel)
	if n == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (3 * float64(n)) * chem.KelvinPerHartree
}

// SampleVelocities draws Maxwell–Boltzmann velocities at temperature T
// (Kelvin) and removes the centre-of-mass drift.
func (s *State) SampleVelocities(temperature float64, rng *rand.Rand) {
	kt := temperature / chem.KelvinPerHartree
	for i := range s.Vel {
		sigma := math.Sqrt(kt / s.Masses[i])
		for k := 0; k < 3; k++ {
			s.Vel[i][k] = sigma * rng.NormFloat64()
		}
	}
	s.RemoveDrift()
}

// RemoveDrift zeroes the total linear momentum.
func (s *State) RemoveDrift() {
	var p [3]float64
	var mTot float64
	for i, v := range s.Vel {
		for k := 0; k < 3; k++ {
			p[k] += s.Masses[i] * v[k]
		}
		mTot += s.Masses[i]
	}
	for i := range s.Vel {
		for k := 0; k < 3; k++ {
			s.Vel[i][k] -= p[k] / mTot
		}
	}
}

// StepInfo reports one completed MD step.
type StepInfo struct {
	Step int
	Epot float64
	Ekin float64
	Etot float64
	Temp float64
}

// Observer receives per-step reports.
type Observer func(StepInfo)

// VelocityVerlet integrates NVE dynamics with the given time step
// (atomic units). It is the synchronous whole-system reference
// integrator; package sched implements the per-monomer asynchronous
// variant with identical numerics.
type VelocityVerlet struct {
	Dt       float64
	Provider ForceProvider
}

// Run performs n force evaluations (steps 0..n−1), mutating the state in
// place. The observer, if non-nil, fires once per step with full-step
// velocities.
func (vv *VelocityVerlet) Run(s *State, n int, obs Observer) error {
	if !(vv.Dt > 0) || math.IsInf(vv.Dt, 1) {
		return errors.New("md: time step must be positive and finite")
	}
	dt := vv.Dt
	epot, grad, err := vv.Provider.Forces(s.Geom)
	if err != nil {
		return err
	}
	for step := 0; step < n; step++ {
		if obs != nil {
			ek := s.KineticEnergy()
			obs(StepInfo{Step: step, Epot: epot, Ekin: ek, Etot: epot + ek, Temp: s.Temperature()})
		}
		if step == n-1 {
			break
		}
		// Kick-drift: v(t+½) = v(t) − g/2m·dt ; x(t+1) = x + v(t+½)·dt.
		for i := range s.Vel {
			for k := 0; k < 3; k++ {
				s.Vel[i][k] -= grad[3*i+k] / (2 * s.Masses[i]) * dt
				s.Geom.Atoms[i].Pos[k] += s.Vel[i][k] * dt
			}
		}
		epot, grad, err = vv.Provider.Forces(s.Geom)
		if err != nil {
			return err
		}
		// Second kick: v(t+1) = v(t+½) − g(t+1)/2m·dt.
		for i := range s.Vel {
			for k := 0; k < 3; k++ {
				s.Vel[i][k] -= grad[3*i+k] / (2 * s.Masses[i]) * dt
			}
		}
	}
	return nil
}

// ConservationStats summarises total-energy conservation over a
// trajectory (the paper's Fig. 6 diagnostic).
type ConservationStats struct {
	E0       float64
	MaxDrift float64 // max |E(t) − E0|
	RMS      float64 // RMS fluctuation about the mean
	N        int
}

// NewConservationTracker returns an Observer computing drift statistics
// plus an accessor for the result.
func NewConservationTracker() (Observer, func() ConservationStats) {
	var energies []float64
	obs := func(si StepInfo) { energies = append(energies, si.Etot) }
	get := func() ConservationStats {
		st := ConservationStats{N: len(energies)}
		if len(energies) == 0 {
			return st
		}
		st.E0 = energies[0]
		var mean float64
		for _, e := range energies {
			mean += e
			if d := math.Abs(e - st.E0); d > st.MaxDrift {
				st.MaxDrift = d
			}
		}
		mean /= float64(len(energies))
		var ss float64
		for _, e := range energies {
			ss += (e - mean) * (e - mean)
		}
		st.RMS = math.Sqrt(ss / float64(len(energies)))
		return st
	}
	return obs, get
}
