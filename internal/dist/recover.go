package dist

// Checkpoint-based replica replacement with deterministic re-join.
//
// The recovery doctrine rides the trainer's all-or-nothing step semantics:
// a parameter update is the last action of a step and runs only after every
// collective of that step has succeeded, and the all-to-all collectives
// make a mid-step failure stall every rank before that point. So when Step
// returns an error, every surviving replica still holds the previous step's
// parameters and optimizer state bit-for-bit. The only state the failed
// step consumed is (a) the RNG draws each sampler spent on the doomed batch
// and (b) the SR warm-start vectors a bailed CG solve polluted — both of
// which Step snapshotted at entry (see Trainer.snapshot). Recovery
// therefore:
//
//  1. checkpoints a survivor's parameters (atomic nn.SaveFile when given a
//     directory, in-memory otherwise) and reloads them for each dead rank,
//  2. builds a replacement replica per dead rank via the caller's
//     ReplicaBuilder, transplanting a deep copy of a survivor's optimizer
//     state and rewinding the replacement's sampler and SR solver to the
//     DEAD rank's step-entry snapshot — its exact stream position,
//  3. rewinds every survivor's sampler and SR solver to its own snapshot,
//  4. re-assembles a fresh trainer (fresh communicator group) through New,
//     which re-validates the bit-identity invariant across all replicas.
//
// The rebuilt trainer's next Step replays the failed iteration with the
// identical draws, reductions and update the uninterrupted run would have
// executed — the resumed trajectory is bit-identical (exact ==), which the
// recovery test suite pins.

import (
	"bytes"
	"fmt"
	"path/filepath"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// ReplicaBuilder constructs the replacement replica for a dead rank around
// a checkpoint-loaded model. The builder supplies the replica skeleton —
// sampler (any seed; Recover rewinds it to the dead rank's exact stream
// position, so it only needs the same shape: worker/chain count and kind),
// optimizer and SR (both replaced by survivor-derived state) and Workers (a
// pure throughput knob). It must set Model to the model it is given.
type ReplicaBuilder func(rank int, model Model) (Replica, error)

// Recover builds a replacement trainer after a failed Step. dir, when
// non-empty, is where the survivor checkpoint file is written (atomically;
// the file is left behind as the recovery artifact); an empty dir keeps the
// checkpoint in memory. build constructs the replacement replica for each
// dead rank.
//
// The receiving trainer must be condemned (GroupErr non-nil) with at least
// one dead rank, and must have been recoverable from construction: every
// sampler a sampler.Resumable and every optimizer an optimizer.StateCloner.
// The receiver is consumed — its replicas are rewound in place and carried
// into the returned trainer; it must not be stepped again.
func (t *Trainer) Recover(dir string, build ReplicaBuilder) (*Trainer, error) {
	if t.notRecoverable != nil {
		return nil, fmt.Errorf("dist: trainer cannot recover: %w", t.notRecoverable)
	}
	if t.group.Err() == nil {
		return nil, fmt.Errorf("dist: group is healthy; nothing to recover from")
	}
	if !t.snapValid {
		return nil, fmt.Errorf("dist: no step snapshot to recover to (group condemned before any Step?): %w", t.group.Err())
	}
	dead := t.group.DeadRanks()
	if len(dead) == 0 {
		return nil, fmt.Errorf("dist: group aborted without a dead rank (cause: %w); no replica to replace — rebuild manually", t.group.Err())
	}
	deadSet := make(map[int]bool, len(dead))
	for _, r := range dead {
		deadSet[r] = true
	}
	surv := -1
	for r := range t.Reps {
		if !deadSet[r] {
			surv = r
			break
		}
	}
	if surv < 0 {
		return nil, fmt.Errorf("dist: all %d replicas dead; nothing to recover from", len(t.Reps))
	}

	// Checkpoint the survivor's parameters — still the last committed
	// step's bytes — and prepare a loader for the dead ranks.
	loadModel, err := t.checkpointLoader(dir, "recover", surv, t.snapIter)
	if err != nil {
		return nil, fmt.Errorf("dist: recovery checkpoint: %w", err)
	}

	reps := make([]Replica, len(t.Reps))
	for r := range t.Reps {
		if !deadSet[r] {
			// Survivor: rewind its sampler and SR solver to its own
			// step-entry snapshot, undoing the draws and warm-start
			// pollution of the failed step. Parameters and optimizer state
			// were never touched by the failed step and carry over as-is.
			rep := t.Reps[r]
			rep.Smp.(sampler.Resumable).Restore(t.snapSmp[r])
			if rep.SR != nil {
				rep.SR.RestoreState(t.snapSR[r])
			}
			reps[r] = rep
			continue
		}
		model, err := loadModel()
		if err != nil {
			return nil, fmt.Errorf("dist: reloading checkpoint for rank %d: %w", r, err)
		}
		rep, err := build(r, model)
		if err != nil {
			return nil, fmt.Errorf("dist: building replacement replica %d: %w", r, err)
		}
		if rep.Model == nil {
			rep.Model = model
		}
		rs, ok := rep.Smp.(sampler.Resumable)
		if !ok {
			return nil, fmt.Errorf("dist: replacement sampler %T for rank %d is not sampler.Resumable", rep.Smp, r)
		}
		// Position the replacement at the DEAD rank's exact stream state.
		rs.Restore(t.snapSmp[r])
		// Transplant a survivor's optimizer state: all replicas' optimizer
		// states are bit-identical by the synchronous-update invariant, so
		// any survivor's is the dead rank's.
		opt, err := optimizer.CloneOptimizerState(t.Reps[surv].Opt)
		if err != nil {
			return nil, fmt.Errorf("dist: cloning optimizer state for rank %d: %w", r, err)
		}
		rep.Opt = opt
		if t.sr {
			// Fresh SR with the survivor's configuration, rewound to the
			// dead rank's warm start (warm starts are private per replica
			// but also bit-identical across ranks — the lockstep CG updates
			// them with identical arithmetic on identical bytes).
			rep.SR = t.Reps[surv].SR.Clone()
			rep.SR.RestoreState(t.snapSR[r])
		} else {
			rep.SR = nil
		}
		reps[r] = rep
	}

	nt, err := New(t.H, reps, t.mb)
	if err != nil {
		return nil, fmt.Errorf("dist: re-assembling trainer after recovery: %w", err)
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
	if t.link != (comm.Link{}) {
		nt.SetLink(t.link)
	}
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
