package dist

// Membership changes: replacing a dead rank (Recover), continuing on the
// survivors (Shrink) and admitting ranks to a healthy trainer (Grow) are
// one operation, rebuild, over the ranks it KEEPS plus the ranks it BUILDS.
//
// The doctrine rides the trainer's all-or-nothing step semantics: a
// parameter update is the last action of a step and runs only after every
// collective of that step has succeeded, and the all-to-all collectives make
// a mid-step failure stall every rank before that point. So when Step
// returns an error the failed step committed nothing: every survivor still
// holds the previous step's parameters and optimizer state bit-for-bit, and
// the only state the step consumed is (a) the RNG draws each sampler spent
// on the doomed batch and (b) the SR warm-start vectors a bailed CG solve
// polluted — both snapshotted by Step at entry (see Trainer.snapshot).
// Rewinding a kept rank to its snapshot therefore leaves exactly the state a
// fresh trainer would have been handed, and a built rank needs only what the
// synchronous-update invariant makes identical on every rank anyway: the
// parameters (checkpointed and reloaded, an exact round trip), the optimizer
// state (deep-cloned) and the SR warm start. Every L-dependent constant (the
// gradient average, the SR batch normalization) is derived from the replica
// count at construction, so the rebuilt trainer is not an approximation of
// the old run at another size — it IS a legal run (exact ==, pinned by the
// recovery and elastic suites) of the size it now has, and EffectiveBatch
// and IterStats.Batch report that size honestly:
//
//   - Recover rebuilds every dead rank in its own slot at the dead rank's
//     snapshot — its exact stream position and warm start — so replaying the
//     failed iteration is bit-identical to the uninterrupted L-rank run.
//   - Shrink drops the dead slots: the continuation is bit-identical to a
//     fresh (L−k)-rank trainer constructed from the survivors' state.
//     Replacement capacity is not always available, and a trainer that
//     blocks waiting for a rank it will never get is the same hang-forever
//     failure class the bounded-wait collectives were built to kill.
//   - Grow appends ranks that sample from their builder's own streams —
//     there is no dead rank whose position they must resume — making a legal
//     (L+add)-rank run from the admission point onward.
//
// None of them owns the policy of WHEN to replace, shrink, grow, retry or
// give up; that is the Supervisor's, in supervise.go.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// ReplicaBuilder constructs the replica for a built rank around a
// checkpoint-loaded model. The builder supplies the replica skeleton —
// sampler (Recover rewinds it to the dead rank's exact stream position, so
// there it needs only the same shape: worker/chain count and kind; Grow
// keeps its stream as-is), optimizer and SR (both replaced by state derived
// from a kept rank) and Workers (a pure throughput knob). It must set Model
// to the model it is given.
type ReplicaBuilder func(rank int, model Model) (Replica, error)

// FailureRecord is one failed step's forensics, kept across trainer
// rebuilds (see Trainer.FailureHistory).
type FailureRecord struct {
	// Step is the iteration whose Step call returned an error on that
	// trainer incarnation; for a failed Evaluate, the last iteration begun.
	Step int
	// Dead lists the ranks whose deaths had fired by then, ascending; empty
	// when the group was condemned without a rank death (explicit abort, or
	// a straggler past the deadline).
	Dead []int
}

// FailureHistory returns one record per failed step, accumulated ACROSS
// Recover/Shrink/Grow rebuilds — unlike DeadRanks and FailedStep, which
// describe only the current trainer incarnation and would otherwise lose
// the first failure's post-mortem the moment a second failure hits the
// rebuilt trainer. The returned slice is a deep copy.
func (t *Trainer) FailureHistory() []FailureRecord {
	out := make([]FailureRecord, len(t.history))
	for i, rec := range t.history {
		out[i] = FailureRecord{Step: rec.Step, Dead: append([]int(nil), rec.Dead...)}
	}
	return out
}

// Recover rebuilds the ORIGINAL membership after a failed Step condemned
// the group: build constructs a replacement for each dead rank, in the dead
// rank's slot. dir, when non-empty, is where the survivor checkpoint file
// <dir>/recover-step*.pvq is written (atomically; it is left behind as the
// recovery artifact); an empty dir keeps the checkpoint in memory.
//
// Like Shrink and Grow it needs a trainer that was recoverable from
// construction (every sampler a sampler.Resumable, every optimizer an
// optimizer.StateCloner) and consumes the receiver: kept replicas are
// carried into the returned trainer, and the receiver must not be stepped
// again. A refused or failed attempt leaves the receiver as it found it.
func (t *Trainer) Recover(dir string, build ReplicaBuilder) (*Trainer, error) {
	return t.rebuild("recover", dir, true, 0, build)
}

// Shrink re-assembles the trainer over the SURVIVING ranks only, after a
// failed Step condemned the group: a fresh communicator group of size L−k
// and a global batch of (L−k)*mb. It needs at least one dead rank and one
// survivor.
func (t *Trainer) Shrink() (*Trainer, error) {
	return t.rebuild("shrink", "", false, 0, nil)
}

// Grow admits add new ranks to a HEALTHY trainer — the re-expansion after a
// shrink, once capacity returns. build is called with ranks continuing
// after the current ones; the checkpoint is rank 0's parameters
// (<dir>/grow-step*.pvq, or in memory for an empty dir) and the SR warm
// start is rank 0's current one, so the lockstep CG stays in lockstep. The
// global batch grows to (L+add)*mb.
func (t *Trainer) Grow(dir string, add int, build ReplicaBuilder) (*Trainer, error) {
	if add <= 0 {
		return nil, fmt.Errorf("dist: Grow needs a positive rank count, got %d", add)
	}
	return t.rebuild("grow", dir, false, add, build)
}

// rebuild is the one membership change. add > 0 asks for a healthy trainer:
// every rank is kept as it stands and add ranks are built after them.
// Otherwise the trainer must be condemned by a failed Step with a dead rank
// and a survivor: the survivors are kept, each rewound to its step-entry
// snapshot, and the dead slots are built anew (replace) or dropped. op
// names the operation in errors and in the checkpoint file.
func (t *Trainer) rebuild(op, dir string, replace bool, add int, build ReplicaBuilder) (*Trainer, error) {
	if t.notRecoverable != nil {
		return nil, fmt.Errorf("dist: trainer cannot %s: %w", op, t.notRecoverable)
	}
	builds := replace || add > 0
	if builds && build == nil {
		return nil, fmt.Errorf("dist: %s needs a ReplicaBuilder", op)
	}
	n := len(t.Reps)
	condemned := t.group.Err()
	dead := make([]bool, n)
	if add > 0 {
		if condemned != nil {
			return nil, fmt.Errorf("dist: cannot grow a condemned trainer (Recover or Shrink first): %w", condemned)
		}
	} else {
		if condemned == nil {
			return nil, fmt.Errorf("dist: group is healthy; nothing to %s from", op)
		}
		if !t.snapValid {
			return nil, fmt.Errorf("dist: no step snapshot to rewind to (group condemned before any Step, or in Evaluate): %w", condemned)
		}
		ranks := t.group.DeadRanks()
		if len(ranks) == 0 {
			return nil, fmt.Errorf("dist: group aborted without a dead rank (cause: %w); no membership to %s — rebuild manually", condemned, op)
		}
		for _, r := range ranks {
			dead[r] = true
		}
	}
	// src is the first kept rank: the one whose parameters are checkpointed
	// and whose optimizer state and SR configuration every built rank gets.
	// All replicas' optimizer states are bit-identical by the synchronous-
	// update invariant, so any kept rank's is the built rank's.
	src := slices.Index(dead, false)
	if src < 0 {
		return nil, fmt.Errorf("dist: all %d replicas dead; no survivor to %s from", n, op)
	}
	// The kept ranks' parameters are still the last committed step's bytes.
	var load func() (Model, error)
	if builds {
		var err error
		if load, err = t.checkpointLoader(dir, op, src, t.snapIter); err != nil {
			return nil, fmt.Errorf("dist: %s checkpoint: %w", op, err)
		}
	}

	reps := make([]Replica, 0, n+add)
	for r := 0; r < n+add; r++ {
		var rep Replica
		switch {
		case r < n && !dead[r]:
			rep = t.Reps[r]
			if condemned != nil {
				// Survivor: rewind its sampler and SR solver to its own
				// step-entry snapshot, undoing the draws and warm-start
				// pollution of the failed step (idempotent, so a failed
				// attempt can be retried). Parameters and optimizer state
				// were never touched by the failed step and carry over as-is.
				rep.Smp.(sampler.Resumable).Restore(t.snapSmp[r])
				if rep.SR != nil {
					rep.SR.RestoreState(t.snapSR[r])
				}
			}
		case r < n && !replace:
			continue // dead slot dropped
		default:
			model, err := load()
			if err != nil {
				return nil, fmt.Errorf("dist: %s: reloading checkpoint for rank %d: %w", op, r, err)
			}
			if rep, err = build(r, model); err != nil {
				return nil, fmt.Errorf("dist: %s: building replica %d: %w", op, r, err)
			}
			if rep.Model == nil {
				rep.Model = model
			}
			if r < n {
				// Position the replacement at the DEAD rank's exact stream
				// state.
				rs, ok := rep.Smp.(sampler.Resumable)
				if !ok {
					return nil, fmt.Errorf("dist: replacement sampler %T for rank %d is not sampler.Resumable", rep.Smp, r)
				}
				rs.Restore(t.snapSmp[r])
			}
			if rep.Opt, err = optimizer.CloneOptimizerState(t.Reps[src].Opt); err != nil {
				return nil, fmt.Errorf("dist: %s: cloning optimizer state for rank %d: %w", op, r, err)
			}
			rep.SR = nil
			if t.sr {
				// Warm starts are private per replica but bit-identical across
				// ranks — the lockstep CG updates them with identical arithmetic
				// on identical bytes — so an admitted rank takes src's current
				// one; a replacement takes the dead rank's snapshot.
				rep.SR = t.Reps[src].SR.Clone()
				if r < n {
					rep.SR.RestoreState(t.snapSR[r])
				} else {
					rep.SR.RestoreState(t.Reps[src].SR.CaptureState())
				}
			}
		}
		reps = append(reps, rep)
	}
	// New re-validates the bit-identity invariant across all replicas and
	// gives the trainer a fresh communicator group.
	nt, err := New(t.H, reps, t.mb)
	if err != nil {
		return nil, fmt.Errorf("dist: re-assembling trainer after %s: %w", op, err)
	}
	t.carryElastic(nt)
	return nt, nil
}

// carryElastic copies the collective configuration and elastic bookkeeping
// from t onto a rebuilt trainer: the deadline, the simulated link, the
// cumulative failure history, and — when a FaultPlan is attached — its NEXT
// generation of scripted deaths, armed on the fresh group. Faults injected
// directly with InjectFailure are deliberately NOT carried over: a script
// aimed at one incarnation's membership is meaningless on the next.
func (t *Trainer) carryElastic(nt *Trainer) {
	nt.group.SetDeadline(t.group.Deadline())
	nt.group.SetLink(t.group.Link())
	nt.history = append([]FailureRecord(nil), t.history...)
	if t.plan != nil {
		nt.plan = t.plan
		t.plan.Apply(nt.group)
	}
}

// checkpointLoader saves rank src's model — atomically to
// <dir>/<prefix>-step%04d.pvq when dir is non-empty (the file is left
// behind as the durable artifact of the event), in memory otherwise — and
// returns a loader reconstructing an independent copy per call. The binary
// format stores raw float64 bits, so every round trip is exact.
func (t *Trainer) checkpointLoader(dir, prefix string, src, step int) (func() (Model, error), error) {
	if dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("%s-step%04d.pvq", prefix, step))
		if err := nn.SaveFile(path, t.Reps[src].Model); err != nil {
			return nil, err
		}
		return func() (Model, error) { return loadCheckpointModel(nn.LoadFile(path)) }, nil
	}
	var buf bytes.Buffer
	if err := nn.SaveWavefunction(&buf, t.Reps[src].Model); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	return func() (Model, error) {
		return loadCheckpointModel(nn.LoadWavefunction(bytes.NewReader(data)))
	}, nil
}

// loadCheckpointModel narrows a loaded wavefunction to the trainer's Model
// contract.
func loadCheckpointModel(wf nn.Wavefunction, err error) (Model, error) {
	if err != nil {
		return nil, err
	}
	m, ok := wf.(Model)
	if !ok {
		return nil, fmt.Errorf("dist: checkpointed %T does not satisfy dist.Model", wf)
	}
	return m, nil
}
