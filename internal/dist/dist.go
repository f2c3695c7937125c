// Package dist implements the paper's headline contribution: synchronous
// data-parallel VQMC training (Section 3.2, Figures 3-4). L identical model
// replicas — goroutine "devices" — each sample a private mini-batch from
// their own rng stream, evaluate local energies, and form a local
// gradient contribution; the replicas then synchronize through a real
// chunked ring all-reduce (package comm) that combines the gradient and the
// energy statistics, and every replica applies the identical averaged
// update through its own optimizer instance.
//
// The iteration itself is not written here: each replica goroutine runs
// core.ReplicaStep, the one implementation of the step; at L = 1 the
// group's collectives are the identity and this is the serial trainer that
// the library and the experiments run. This package owns what is genuinely distributed — validating that
// L replicas form one consistent run, launching and joining the L steps,
// condemning the group when one fails, the step-entry snapshot behind
// Recover/Shrink/Grow (membership.go), the Supervisor that drives them
// through failures (supervise.go), and the traffic and collective counters.
//
// Because the ring all-reduce leaves bit-identical bytes in every rank
// (each chunk is reduced on exactly one owner and then circulated by copy,
// never re-summed), and every optimizer starts from the same state, replica
// parameters remain bit-identical across the whole run *by construction* —
// no broadcast resynchronization is ever needed. The test suite pins this
// invariant with exact (==) comparisons.
//
// Two levels of parallelism compose here, modeling node x GPU hierarchies:
// the replicas are the outer data-parallel dimension, and each replica can
// additionally share its local-energy and gradient evaluation out over
// Workers goroutines (one contiguous share of the mini-batch each, see
// core.Replica.Workers). Worker partitioning only changes which goroutine
// computes each independent row, and the per-sample reduction stays a
// deterministic ordered loop, so the trained parameters are bitwise
// independent of every replica's worker count — replicas with different
// Workers still stay bit-identical to each other.
//
// With a Replica.SR preconditioner set, the trainer runs *distributed
// stochastic reconfiguration*: each replica keeps only its private O_k rows
// (miniBatch x d), and the Fisher solve runs matrix-free CG where every
// iteration forms the local partial Fisher-vector product and combines it —
// packed together with the scalar dot-product CG needs — in exactly one
// ring all-reduce (the sample-distributed formulation of Neuscamman,
// Umrigar & Chan, arXiv:1108.0900). The O_k batch is never gathered on one
// device, which is what lets the parameter and sample counts scale
// independently.
//
// With SR.Solver set to optimizer.SolverPipelined the Fisher solve runs
// Gropp's overlapped CG instead: the same per-iteration packed reduction is
// issued NON-blocking (comm.Packed.IAllReduce) right after the local sweep,
// and the recurrence updates execute while it is in flight, so each
// iteration costs max(reduction, update) instead of their sum and the solve
// itself issues zero blocking collectives. The collective schedule is still
// identical on every rank and the reduced bytes are still bit-identical, so
// all bit-identity invariants carry over unchanged.
//
// The effective batch is devices x miniBatch: fixing miniBatch and growing
// the device count grows the batch at near-constant step time, which is the
// mechanism behind the paper's Figure 4 convergence improvements and
// Figure 3 weak scaling.
package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// Model is the wavefunction contract a replica needs (see core.Model).
type Model = core.Model

// Replica is one data-parallel device (see core.Replica). All replicas must
// be constructed with identical initial parameters (same init seed), and
// either every replica carries a private SR instance (identical
// configuration, distinct pointers — use SR.Clone) or none does; New
// verifies both.
type Replica = core.Replica

// Timings decomposes one replica's cumulative wall-clock time by phase (see
// core.PhaseTimings).
type Timings = core.PhaseTimings

// Trainer coordinates synchronous data-parallel VQMC across the replicas.
type Trainer struct {
	H    hamiltonian.Hamiltonian
	Reps []Replica

	mb    int  // per-replica mini-batch
	sr    bool // stochastic reconfiguration enabled
	group *comm.Group
	// comms[r] is rank r's endpoint and steps[r] the shared VQMC step bound
	// to it, run on replica r's goroutine.
	comms []*comm.Comm
	steps []*core.ReplicaStep
	// Recovery state (see membership.go): Step captures every replica's
	// sampler stream position and SR solver state at entry — before any
	// draw or collective — as the rewind point of a mid-step failure.
	// notRecoverable (non-nil when a sampler is not Resumable or an
	// optimizer not a StateCloner) disables snapshotting and every
	// membership change with a reason.
	notRecoverable error
	snapSmp        []sampler.State
	snapSR         []optimizer.SRState
	snapValid      bool
	snapIter       int // the last iteration begun, snapshotted or not
	failedIter     int
	// Elastic-membership state (see membership.go): plan re-arms the next
	// generation of scripted faults on every rebuilt group, and history
	// accumulates one forensic record per failed step ACROSS rebuilds —
	// DeadRanks/FailedStep describe only the current incarnation, so a
	// second failure during recovery would otherwise orphan the first's
	// post-mortem.
	plan    *comm.FaultPlan
	history []FailureRecord
}

// collectiveDeadline bounds every blocking point of a new trainer's
// collectives: a rank that falls off the collective schedule (or dies)
// makes every other rank's Step fail with comm.ErrPeerLost instead of
// blocking forever. It is long enough that no healthy step on a loaded host
// comes near it.
const collectiveDeadline = 30 * time.Second

// New assembles a data-parallel trainer over the replicas. It validates
// that the replica list is nonempty, miniBatch is positive, every replica
// is fully populated, all models share the Hamiltonian's site count and one
// parameter shape, the SR preconditioners are either absent everywhere or
// private identically-configured instances everywhere, and the initial
// parameter vectors are bit-identical. The trainer's collectives run under
// collectiveDeadline.
func New(h hamiltonian.Hamiltonian, reps []Replica, miniBatch int) (*Trainer, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("dist: no replicas")
	}
	if miniBatch <= 0 {
		return nil, fmt.Errorf("dist: miniBatch must be positive, got %d", miniBatch)
	}
	n := h.N()
	sr0 := reps[0].SR
	seenSR := make(map[*optimizer.SR]int, len(reps))
	for r, rep := range reps {
		if rep.Model == nil || rep.Smp == nil || rep.Opt == nil {
			return nil, fmt.Errorf("dist: replica %d is missing a model, sampler, or optimizer", r)
		}
		if rep.Model.NumSites() != n {
			return nil, fmt.Errorf("dist: replica %d has %d sites, Hamiltonian has %d",
				r, rep.Model.NumSites(), n)
		}
		if rep.Model.NumParams() != reps[0].Model.NumParams() {
			return nil, fmt.Errorf("dist: replica %d has %d parameters, replica 0 has %d",
				r, rep.Model.NumParams(), reps[0].Model.NumParams())
		}
		if (rep.SR != nil) != (sr0 != nil) {
			return nil, fmt.Errorf("dist: replica %d SR presence differs from replica 0 (all or none)", r)
		}
		if rep.SR != nil {
			if prev, dup := seenSR[rep.SR]; dup {
				return nil, fmt.Errorf("dist: replicas %d and %d share one SR instance; each needs a private clone", prev, r)
			}
			seenSR[rep.SR] = r
			if rep.SR.Lambda != sr0.Lambda || rep.SR.Tol != sr0.Tol ||
				rep.SR.MaxIter != sr0.MaxIter || rep.SR.Solver != sr0.Solver {
				return nil, fmt.Errorf("dist: replica %d SR configuration differs from replica 0; the lockstep CG needs identical settings", r)
			}
		}
	}
	t := &Trainer{H: h, Reps: reps, mb: miniBatch, sr: sr0 != nil, group: comm.NewGroup(len(reps))}
	t.group.SetDeadline(collectiveDeadline)
	if err := t.CheckConsistent(); err != nil {
		return nil, fmt.Errorf("dist: replicas must start from identical parameters: %w", err)
	}
	t.comms = make([]*comm.Comm, len(reps))
	t.steps = make([]*core.ReplicaStep, len(reps))
	for r, rep := range reps {
		t.comms[r] = t.group.Rank(r)
		t.steps[r] = core.NewReplicaStep(h, rep, t.comms[r], miniBatch)
	}
	for r, rep := range reps {
		if _, ok := rep.Smp.(sampler.Resumable); !ok {
			t.notRecoverable = fmt.Errorf("dist: replica %d sampler %T is not sampler.Resumable", r, rep.Smp)
			break
		}
		if _, ok := rep.Opt.(optimizer.StateCloner); !ok {
			t.notRecoverable = fmt.Errorf("dist: replica %d optimizer %s is not optimizer.StateCloner", r, rep.Opt.Name())
			break
		}
	}
	t.snapSmp = make([]sampler.State, len(reps))
	t.snapSR = make([]optimizer.SRState, len(reps))
	return t, nil
}

// Devices returns the replica count L.
func (t *Trainer) Devices() int { return len(t.Reps) }

// MiniBatch returns the per-replica batch size.
func (t *Trainer) MiniBatch() int { return t.mb }

// EffectiveBatch returns devices x miniBatch, the global samples per step.
func (t *Trainer) EffectiveBatch() int { return len(t.Reps) * t.mb }

// SREnabled reports whether the trainer runs distributed stochastic
// reconfiguration.
func (t *Trainer) SREnabled() bool { return t.sr }

// Timings returns rank 0's cumulative per-phase wall-clock times, element 0
// of RankTimings. The collectives equalize the ranks' iteration time, not
// their phases: a rank that computes faster waits the difference in Sync.
func (t *Trainer) Timings() Timings { return t.steps[0].Timings() }

// RankTimings returns every rank's cumulative per-phase wall-clock times,
// indexed by rank: one entry per replica of THIS trainer (one returned by
// Recover, Shrink or Grow starts its ranks' clocks afresh). The spread of
// Sync across ranks is the straggler signal.
func (t *Trainer) RankTimings() []Timings {
	out := make([]Timings, len(t.steps))
	for r, s := range t.steps {
		out[r] = s.Timings()
	}
	return out
}

// Traffic reports the cumulative all-reduce payload bytes and message count
// summed over replicas — the communication side of the scaling story. Under
// SR it includes the per-step energy and gradient collectives and every
// per-CG-iteration Fisher collective.
func (t *Trainer) Traffic() (bytes, messages int64) {
	for _, cm := range t.comms {
		bytes += cm.BytesSent()
		messages += cm.Messages()
	}
	return bytes, messages
}

// FisherApplies reports how many distributed Fisher-vector collectives the
// SR solves have issued so far (one per CG ApplyDot or StartApply, counted
// once per collective — every replica participates in each). Zero without
// SR.
func (t *Trainer) FisherApplies() int64 { return t.steps[0].FisherApplies() }

// Collectives reports the blocking-vs-non-blocking collective counts SUMMED
// over all ranks — not just rank 0's view, which silently under-reports
// (and hides schedule divergence) the moment any rank issues a different
// collective sequence. In a healthy run every rank issues the identical
// schedule, so each total is exactly L times the per-rank count; the
// CollectivesBalanced check pins that. With the classic SR solver every
// Fisher collective is blocking; with the pipelined solver they all move to
// the async side, leaving only the two pre-solve reductions blocking per
// step — the latency-hiding the solver exists for, made countable.
func (t *Trainer) Collectives() (sync, async int64) {
	for _, cm := range t.comms {
		s, a := cm.Collectives()
		sync += s
		async += a
	}
	return sync, async
}

// CollectivesByRank reports each rank's (blocking, non-blocking) collective
// counts individually.
func (t *Trainer) CollectivesByRank() [][2]int64 {
	out := make([][2]int64, len(t.comms))
	for r, cm := range t.comms {
		s, a := cm.Collectives()
		out[r] = [2]int64{s, a}
	}
	return out
}

// CollectivesBalanced verifies the lockstep-schedule invariant: every rank
// must have issued exactly the same number of blocking and non-blocking
// collectives. A mismatch on a healthy trainer means a rank diverged from
// the global collective schedule — the precursor of a deadlock.
func (t *Trainer) CollectivesBalanced() error {
	per := t.CollectivesByRank()
	for r := 1; r < len(per); r++ {
		if per[r] != per[0] {
			return fmt.Errorf("dist: rank %d issued %d sync / %d async collectives, rank 0 issued %d / %d",
				r, per[r][0], per[r][1], per[0][0], per[0][1])
		}
	}
	return nil
}

// SetCollectiveDeadline replaces the collectiveDeadline New installs on
// every blocking point of every collective the trainer issues (see
// comm.Group.SetDeadline): a replica that stops participating makes every
// survivor's Step return an error wrapping comm.ErrPeerLost within the
// deadline instead of hanging forever. Call before training starts; Recover
// carries the deadline onto the rebuilt group.
func (t *Trainer) SetCollectiveDeadline(d time.Duration) { t.group.SetDeadline(d) }

// InjectFailure scripts replica rank to die at its (after+1)-th collective
// (see comm.Group.FailAt) — the test seam behind the failure-injection
// matrix. Survivors detect the death within the collective deadline, so
// tests shorten it with SetCollectiveDeadline.
// The script arms only the CURRENT group; use SetFaultPlan to script deaths
// across Recover/Shrink/Grow rebuilds.
func (t *Trainer) InjectFailure(rank, after int) { t.group.FailAt(rank, after) }

// SetFaultPlan attaches a multi-generation fault script (see
// comm.FaultPlan): the plan's next generation is armed on the current group
// immediately, and every trainer a Recover, Shrink or Grow rebuild produces
// arms the following generation on its fresh group — the seam that lets a
// test drive a full shrink -> grow -> shrink failure schedule
// deterministically. Call before training starts.
func (t *Trainer) SetFaultPlan(p *comm.FaultPlan) {
	t.plan = p
	if p != nil {
		p.Apply(t.group)
	}
}

// InjectStraggler scripts replica rank to sleep d before each collective it
// initiates (see comm.Group.Delay).
func (t *Trainer) InjectStraggler(rank int, d time.Duration) { t.group.Delay(rank, d) }

// GroupErr returns the abort cause once the trainer's collective group has
// been condemned, nil while it is healthy. After a non-nil GroupErr every
// subsequent Step fails fast; Recover builds a replacement trainer.
func (t *Trainer) GroupErr() error { return t.group.Err() }

// DeadRanks lists the replicas whose injected failures have fired. Read it
// only after a failed Step has returned.
func (t *Trainer) DeadRanks() []int { return t.group.DeadRanks() }

// FailedStep returns the iteration number of the Step that returned an
// error — for a failed Evaluate, of the last Step begun before it (0 if
// nothing has failed, or an Evaluate failed before any Step).
func (t *Trainer) FailedStep() int { return t.failedIter }

// CheckConsistent verifies that all replicas hold bit-identical parameter
// vectors (exact ==, no tolerance). The synchronous update scheme preserves
// this invariant, so any difference indicates a broken collective or an
// optimizer that diverged from its peers.
func (t *Trainer) CheckConsistent() error {
	ref := t.Reps[0].Model.Params()
	for r := 1; r < len(t.Reps); r++ {
		p := t.Reps[r].Model.Params()
		if len(p) != len(ref) {
			return fmt.Errorf("replica %d has %d parameters, replica 0 has %d", r, len(p), len(ref))
		}
		for i := range ref {
			if p[i] != ref[i] {
				return fmt.Errorf("replica %d parameter %d = %v, replica 0 has %v",
					r, i, p[i], ref[i])
			}
		}
	}
	return nil
}

// Step runs one synchronous data-parallel iteration and returns the global
// batch statistics. iter is echoed into the returned record.
//
// A non-nil error means the group degraded mid-step: at least one replica's
// collective failed (peer lost within the SetCollectiveDeadline bound, rank
// killed by fault injection, or explicit abort) and NO replica committed a
// parameter update — steps are atomic because every collective is
// all-to-all, so no rank can pass the failed collective while another is
// stuck before it, and the update is strictly after the last collective.
// The group is then condemned: further Steps fail fast with the original
// cause, and Recover rebuilds a trainer that resumes bit-identically from
// the pre-step state.
//
// An error wrapping core.ErrNonFinite means the iteration went non-finite on
// every rank alike. That is no group failure: the group stays healthy, and
// on a trainer that can recover (see Recover) every replica's sampler and
// SR solver are rewound to their step-entry snapshot, so the trainer is
// exactly as Step found it and a second call fails the same way.
func (t *Trainer) Step(iter int) (core.IterStats, error) {
	if err := t.group.Err(); err != nil {
		// Fail fast WITHOUT taking a new snapshot: the snapshot of the step
		// that failed is the recovery point and must not be overwritten.
		return core.IterStats{}, fmt.Errorf("dist: step %d on condemned group (Recover first): %w", iter, err)
	}
	t.snapshot(iter)
	// Every replica returns the same statistics of the reduced payload;
	// keep replica 0's.
	var out core.IterStats
	err := t.eachRank(iter, func(r int) error {
		st, err := t.steps[r].Run(iter)
		if err == nil && r == 0 {
			out = st
		}
		return err
	})
	if err != nil {
		if errors.Is(err, core.ErrNonFinite) && t.snapValid {
			for r := range t.Reps {
				t.rewind(r)
			}
		}
		return core.IterStats{}, fmt.Errorf("dist: step %d failed: %w", iter, err)
	}
	return out, nil
}

// eachRank is the trainer's one launch-and-join: fn runs once per rank, all
// L at the same time (they meet in collectives), and the ranks' errors come
// back joined, each naming its replica. A failure condemns the group — even
// one that never reached a deadline (the killed rank's own immediate error),
// so every rank sees subsequent collectives fail fast — and is recorded
// under iter. Callers enter on a healthy group only, so a trainer
// incarnation records at most one failure. A core.ErrNonFinite verdict is
// not a failure of the group: every rank reached it after the same
// collectives, so it condemns nothing and records nothing.
func (t *Trainer) eachRank(iter int, fn func(rank int) error) error {
	l := len(t.Reps)
	errs := make([]error, l)
	parallel.ForEach(l, l, func(r int) {
		if err := fn(r); err != nil {
			errs[r] = fmt.Errorf("dist: replica %d: %w", r, err)
		}
	})
	err := errors.Join(errs...)
	if err != nil && !errors.Is(err, core.ErrNonFinite) {
		t.group.Abort(err)
		t.failedIter = iter
		// Record the forensics NOW, while this incarnation's group still owns
		// them: a later Recover/Shrink rebuild starts a fresh group whose
		// DeadRanks/FailedStep describe only its own failure. Reading
		// DeadRanks here is safe — ForEach joined the rank goroutines that
		// set the death flags.
		t.history = append(t.history, FailureRecord{Step: iter, Dead: t.group.DeadRanks()})
	}
	return err
}

// snapshot captures every replica's sampler stream position and SR solver
// state at step entry — the rewind point a mid-step failure recovers to.
// It runs serially before the replica goroutines launch, so no capture
// races a draw. No-op on trainers that cannot recover (see notRecoverable).
func (t *Trainer) snapshot(iter int) {
	t.snapIter = iter
	if t.notRecoverable != nil {
		return
	}
	for r, rep := range t.Reps {
		t.snapSmp[r] = rep.Smp.(sampler.Resumable).Snapshot()
		if rep.SR != nil {
			t.snapSR[r] = rep.SR.CaptureState()
		}
	}
	t.snapValid = true
}

// rewind returns replica r's sampler and SR solver to its step-entry
// snapshot, undoing the draws and warm-start updates of the step that
// failed. It is idempotent, so a failed recovery attempt can be retried.
func (t *Trainer) rewind(r int) {
	rep := t.Reps[r]
	rep.Smp.(sampler.Resumable).Restore(t.snapSmp[r])
	if rep.SR != nil {
		rep.SR.RestoreState(t.snapSR[r])
	}
}

// Train runs iters iterations, invoking cb (if non-nil) after each, and
// returns the per-iteration history. Iterations are numbered from 1. On a
// failed step it returns the history of the completed
// steps alongside the error; the failed step committed nothing (see Step)
// and Recover can rebuild a trainer to finish the remaining iterations
// bit-identically.
func (t *Trainer) Train(iters int, cb func(core.IterStats)) ([]core.IterStats, error) {
	hist := make([]core.IterStats, 0, iters)
	for i := 1; i <= iters; i++ {
		s, err := t.Step(i)
		if err != nil {
			return hist, err
		}
		hist = append(hist, s)
		if cb != nil {
			cb(s)
		}
	}
	return hist, nil
}

// Evaluate draws a fresh global batch without updating parameters and
// returns the mean and standard deviation of the local energy. The batch is
// spread across replicas (each sampling from its own stream and evaluating
// with its own workers), and the statistics are combined with the same ring
// collective as training. Error semantics follow Step: a degraded group
// makes every replica's collective return promptly and Evaluate reports the
// cause, condemns the group and records the failure in FailureHistory under
// the last iteration begun. Its draws invalidate the last Step's snapshot,
// so after a failed Evaluate, Recover and Shrink refuse.
func (t *Trainer) Evaluate(batch int) (mean, std float64, err error) {
	mean, std, _, _, err = t.EvaluateBest(batch)
	return mean, std, err
}

// EvaluateBest is Evaluate that also returns the lowest local energy in the
// global batch and the configuration achieving it. Ties go to the lowest
// rank, then the lowest row. Each rank's candidate is read after the ranks
// join, as Step reads rank 0's statistics, so no collective carries it. On
// one replica the statistics are the serial batch mean and standard
// deviation, byte for byte.
func (t *Trainer) EvaluateBest(batch int) (mean, std, best float64, argBest []int, err error) {
	if gerr := t.group.Err(); gerr != nil {
		return 0, 0, 0, nil, fmt.Errorf("dist: evaluate on condemned group (Recover first): %w", gerr)
	}
	if batch <= 0 {
		batch = 1024
	}
	t.snapValid = false
	l := len(t.Reps)
	// After the all-reduce every rank holds identical sums; keep rank 0's.
	var sum tensor.Vector
	// bests[r] and rows[r] are rank r's lowest local energy and its row; a
	// rank that drew no row leaves rows[r] nil.
	bests, rows := make([]float64, l), make([][]int, l)
	err = t.eachRank(t.snapIter, func(r int) error {
		// Replica r evaluates rows [r*batch/l, (r+1)*batch/l).
		cnt := (r+1)*batch/l - r*batch/l
		acc := tensor.NewVector(3)
		if cnt > 0 {
			b := sampler.NewBatch(cnt, t.H.N())
			t.Reps[r].Smp.Sample(b)
			locals := make([]float64, cnt)
			t.steps[r].LocalEnergies(b, locals)
			k := 0
			for i, e := range locals {
				acc[0] += e
				acc[1] += float64(e * e)
				if e < locals[k] {
					k = i
				}
			}
			acc[2] = float64(cnt)
			bests[r], rows[r] = locals[k], slices.Clone(b.Row(k))
		}
		if rerr := t.comms[r].AllReduceSum(acc); rerr != nil {
			return fmt.Errorf("evaluate reduction: %w", rerr)
		}
		if r == 0 {
			sum = acc
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	for r, row := range rows {
		if row != nil && (argBest == nil || bests[r] < best) {
			best, argBest = bests[r], row
		}
	}
	mean = sum[0] / sum[2]
	v := sum[1]/sum[2] - float64(mean*mean)
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v), best, argBest, nil
}
