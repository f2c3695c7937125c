package optimizer

// Optimizer and SR state capture for deterministic recovery. The recovery
// doctrine (docs/ARCHITECTURE.md, "Failure model") rebuilds a lost replica
// so that the resumed run is bit-identical to an uninterrupted one; that
// requires transplanting not just the checkpointed parameters but every
// piece of mutable trainer state — the base optimizer's moment/velocity
// buffers and the SR solver's warm-start vector. Clone()-style constructors
// deliberately zero that state, so capture/restore are separate APIs.

import (
	"fmt"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// StateCloner is implemented by optimizers whose full mutable state can be
// deep-copied onto a fresh instance of the same rule and hyperparameters.
// Both SGD and Adam implement it; a rule without it cannot participate in
// bit-identical recovery.
type StateCloner interface {
	Optimizer
	// CloneState returns a new optimizer with identical hyperparameters and
	// a deep copy of all mutable state, sharing no storage with the
	// receiver.
	CloneState() Optimizer
}

// CloneState implements StateCloner: hyperparameters plus a deep copy of
// the momentum velocity buffer.
func (s *SGD) CloneState() Optimizer {
	c := &SGD{LR: s.LR, Momentum: s.Momentum}
	if s.vel != nil {
		c.vel = append(tensor.Vector(nil), s.vel...)
	}
	return c
}

// CloneState implements StateCloner: hyperparameters, both moment buffers
// and the step counter (which drives bias correction — dropping it would
// change every subsequent update).
func (a *Adam) CloneState() Optimizer {
	c := &Adam{LR: a.LR, t: a.t}
	if a.m != nil {
		c.m = append(tensor.Vector(nil), a.m...)
		c.v = append(tensor.Vector(nil), a.v...)
	}
	return c
}

// CloneOptimizerState deep-copies an optimizer via StateCloner, erroring on
// rules that cannot be cloned with state.
func CloneOptimizerState(o Optimizer) (Optimizer, error) {
	sc, ok := o.(StateCloner)
	if !ok {
		return nil, fmt.Errorf("optimizer: %s does not support state cloning", o.Name())
	}
	return sc.CloneState(), nil
}

// SRState is a snapshot of an SR preconditioner's mutable solver state: the
// warm-start vector and the last solve's statistics. Delta is nil when the
// solver has never run (cold start).
type SRState struct {
	// Delta is a deep copy of the warm-start vector carried across solves.
	Delta tensor.Vector
	// Last is the most recent solve's CG statistics.
	Last CGResult
}

// CaptureState snapshots the solver's warm-start and statistics; restoring
// the snapshot onto an SR with the same configuration replays subsequent
// solves bit-identically.
func (s *SR) CaptureState() SRState {
	st := SRState{Last: s.last}
	if s.delta != nil {
		st.Delta = append(tensor.Vector(nil), s.delta...)
	}
	return st
}

// RestoreState rewinds the solver to a captured snapshot. The SR's
// configuration (Lambda, Tol, MaxIter, Solver) is not part of
// the snapshot and must already match the capture-time configuration for
// bit-identical replay.
func (s *SR) RestoreState(st SRState) {
	if st.Delta == nil {
		s.delta = nil
	} else {
		s.delta = append(tensor.Vector(nil), st.Delta...)
	}
	s.last = st.Last
}

var (
	_ StateCloner = (*SGD)(nil)
	_ StateCloner = (*Adam)(nil)
)
