// Package dist implements the paper's headline contribution: synchronous
// data-parallel VQMC training (Section 3.2, Figures 3-4). L identical model
// replicas — goroutine "devices" — each sample a private mini-batch from
// their own rng stream, evaluate local energies, and form a local
// gradient contribution; the replicas then synchronize through a real
// chunked ring all-reduce (package comm) that combines the gradient and the
// energy statistics, and every replica applies the identical averaged
// update through its own optimizer instance.
//
// Because the ring all-reduce leaves bit-identical bytes in every rank
// (each chunk is reduced on exactly one owner and then circulated by copy,
// never re-summed), and every optimizer starts from the same state, replica
// parameters remain bit-identical across the whole run *by construction* —
// no broadcast resynchronization is ever needed. The test suite pins this
// invariant with exact (==) comparisons, mirroring what package modelpar
// guarantees for the model-parallel dimension.
//
// Two levels of parallelism compose here, modeling node x GPU hierarchies:
// the replicas are the outer data-parallel dimension, and each replica can
// additionally fan its local-energy and gradient evaluation across Workers
// goroutines. Worker partitioning only changes which goroutine computes
// each independent row, and the per-sample reduction stays a deterministic
// ordered loop, so the trained parameters are bitwise independent of every
// replica's worker count — replicas with different Workers still stay
// bit-identical to each other.
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
	"sync"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// Model is the wavefunction contract a replica needs: amplitudes,
// per-worker gradient evaluators, and flip caches for local energies. Both
// neural families satisfy it (MADE and RBM), and either may ride the
// batched evaluation path when it additionally implements
// nn.BatchEvaluatorBuilder.
type Model interface {
	nn.Wavefunction
	nn.CacheBuilder
	nn.GradEvaluatorBuilder
}

// Replica is one data-parallel device: a full copy of the model, a sampler
// drawing from that copy with its own rng stream, and a private optimizer
// instance. All replicas must be constructed with identical initial
// parameters (same init seed); New verifies this.
type Replica struct {
	Model Model
	Smp   sampler.Sampler
	Opt   optimizer.Optimizer
	// SR optionally preconditions the gradient with distributed stochastic
	// reconfiguration. Either every replica carries a private SR instance
	// (identical configuration, distinct pointers — use SR.Clone) or none
	// does; New verifies both.
	SR *optimizer.SR
	// Workers fans this replica's local-energy and gradient evaluation
	// across up to Workers goroutines (<=1 means serial). The worker count
	// is a pure throughput knob: trained parameters are bitwise identical
	// for any mix of worker counts across replicas.
	Workers int
	// Eval selects the replica's evaluation path (core.EvalAuto fuses
	// local energies and gradients into blocked GEMMs over the mini-batch;
	// core.EvalScalar forces per-sample evaluation). Like Workers it is a
	// pure throughput knob — the batched path is bitwise identical to the
	// scalar one, so replicas may even mix modes without diverging.
	Eval core.EvalMode
}

// distFisher is the distributed FisherOp: it owns one replica's private O_k
// rows and combines the one-pass partial statistics of every replica with a
// single packed ring all-reduce per ApplyDot. All replicas run the CG
// recurrence in lockstep on bit-identical reduced bytes.
type distFisher struct {
	cm      *comm.Comm
	ows     *tensor.Batch
	pack    *comm.Packed // [ partial Fisher-vector product (d) | partial p.Ap scalar (1) ]
	tbuf    []float64    // miniBatch per-sample dot products
	obar    tensor.Vector
	lambda  float64
	batchN  float64 // global sample count L*miniBatch
	workers int
	applies *int64       // collective counter, non-nil on rank 0 only
	handle  *comm.Handle // in-flight non-blocking reduction (pipelined solve)
	// err is the sticky failure of a mid-solve collective. The FisherOp
	// interface has no error return, so a failed reduction is surfaced by
	// bailing the CG recurrence instead: ApplyDot/FinishApply zero out and
	// return -1, which classic CG treats as loss of positive definiteness
	// (pap <= 0) and the pipelined solve hits one iteration later through
	// delta = p.Dot(s) = 0 on the zeroed direction product. -1, not NaN —
	// NaN compares false against everything and would run the solve to
	// maxIter. srStep inspects err after the solve and propagates it before
	// any parameter update.
	err error
}

func (f *distFisher) Dim() int { return f.ows.Dim }

// fail records the first collective failure and poisons the operator
// output: out is zeroed (garbage from a degraded reduction must not leak
// NaNs into the CG vectors) and the returned -1 makes the solver bail.
func (f *distFisher) fail(err error, out tensor.Vector) float64 {
	if f.err == nil {
		f.err = err
	}
	out.Fill(0)
	return -1
}

func (f *distFisher) ApplyDot(v, out tensor.Vector) float64 {
	// The local sweep writes straight into the packed collective buffer:
	// [partial S-product | partial p.Ap scalar], one all-reduce total.
	// This is the BLOCKING application the classic CG solve uses.
	if f.err != nil {
		return f.fail(f.err, out)
	}
	optimizer.FisherPartial(f.ows, v, f.pack.Buf(), f.tbuf, f.workers)
	if err := f.pack.AllReduce(f.cm); err != nil {
		return f.fail(err, out)
	}
	if f.applies != nil {
		*f.applies++
	}
	return optimizer.FisherFinish(f.pack.Buf(), f.obar, v, out, f.lambda, f.batchN)
}

// StartApply implements optimizer.SplitFisherOp: the local sweep writes the
// packed partials and the ring reduction is launched NON-blocking, so the
// pipelined solve overlaps its recurrence updates with the in-flight
// collective. The packed buffer is owned by the collective until
// FinishApply. On a failed operator the launch is skipped (handle nil);
// FinishApply reports the bail.
func (f *distFisher) StartApply(v tensor.Vector) {
	if f.err != nil {
		f.handle = nil
		return
	}
	optimizer.FisherPartial(f.ows, v, f.pack.Buf(), f.tbuf, f.workers)
	f.handle = f.pack.IAllReduce(f.cm)
	if f.applies != nil {
		*f.applies++
	}
}

// FinishApply waits for the reduction started by StartApply and assembles
// the operator output from the globally reduced bytes — bit-identical on
// every rank, exactly as the blocking path. A reduction that failed in
// flight bails the solve like ApplyDot does.
func (f *distFisher) FinishApply(v, out tensor.Vector) float64 {
	if f.handle == nil {
		return f.fail(f.err, out)
	}
	err := f.handle.Wait()
	f.handle = nil
	if err != nil {
		return f.fail(err, out)
	}
	return optimizer.FisherFinish(f.pack.Buf(), f.obar, v, out, f.lambda, f.batchN)
}

// replicaState is the per-replica workspace reused across iterations so the
// steady-state loop allocates nothing on the hot path.
type replicaState struct {
	cm      *comm.Comm
	evals   []nn.GradEvaluator // one per worker
	batch   *sampler.Batch
	locals  []float64
	gbuf    tensor.Vector // one sample's grad-log-psi (serial streaming path)
	workers int
	// acc packs the REINFORCE collective payload: [gradient (d), energy
	// sum, energy sum of squares]. One ring all-reduce per iteration moves
	// everything.
	acc tensor.Vector
	// ows holds the replica's private O_k rows (miniBatch x d), allocated
	// when SR needs them for the Fisher solve or when workers > 1 on the
	// scalar path materializes rows before the ordered reduction.
	ows *tensor.Batch
	// Batched evaluation state: bev dispatches local energies and O_k
	// rows through blocked GEMMs (nil = scalar path); wbuf holds gradient
	// coefficients, gparts the fixed-block reduction partials, and
	// slabOws the REINFORCE-path gradient slab (the batched non-SR
	// reduction streams core.GradSlabRows rows at a time instead of
	// materializing the full miniBatch x d O_k matrix).
	bev     *core.BatchedEval
	wbuf    []float64
	gparts  *tensor.Batch
	slabOws *tensor.Batch
	pbuf    tensor.Vector // block partial for the scalar streaming path
	// SR-mode collective payloads: ebuf carries [energy sum, energy sum of
	// squares] (the global mean must exist before the gradient is formed),
	// gpack carries [gradient partial (d) | O-row sum (d)].
	ebuf   []float64
	gpack  *comm.Packed
	fisher *distFisher
}

// Timings decomposes one replica's cumulative wall-clock time by phase —
// the per-iteration breakdown behind the paper's Figure 3 discussion. Sync
// covers the pre-solve ring all-reduces (and therefore any load-imbalance
// wait); Precond covers the SR CG solve including the per-iteration
// collectives it issues.
type Timings struct {
	Sample, Energy, Grad, Sync, Precond, Update time.Duration
}

// Total returns the summed time across phases.
func (t Timings) Total() time.Duration {
	return t.Sample + t.Energy + t.Grad + t.Sync + t.Precond + t.Update
}

// Trainer coordinates synchronous data-parallel VQMC across the replicas.
type Trainer struct {
	H    hamiltonian.Hamiltonian
	Reps []Replica

	mb    int     // per-replica mini-batch
	d     int     // parameter count
	bf    float64 // effective batch as float64
	sr    bool    // stochastic reconfiguration enabled
	group *comm.Group
	state []*replicaState
	// timings are replica 0's phase times, representative because the
	// all-reduce barrier equalizes iteration time across replicas.
	timings Timings
	// fisherApplies counts distributed Fisher collectives (one per CG
	// ApplyDot, every replica participating); written by rank 0 only.
	fisherApplies int64
	// link mirrors the group's simulated link so Recover can re-apply it to
	// the rebuilt group (comm exposes no getter).
	link comm.Link
	// Recovery state (see recover.go). Step captures every replica's
	// sampler stream position and SR solver state at entry — before any
	// draw or collective — so a mid-step failure leaves a consistent rewind
	// point: no rank commits a parameter update until after its last
	// collective, so all survivors still hold the previous step's
	// parameters and optimizer state, and only the consumed RNG draws and
	// polluted SR warm starts need rewinding. notRecoverable (non-nil when
	// a sampler is not Resumable or an optimizer not a StateCloner)
	// disables snapshotting and Recover with a reason.
	notRecoverable error
	snapSmp        []sampler.State
	snapSR         []optimizer.SRState
	snapValid      bool
	snapIter       int
	failedIter     int
	// Elastic-membership state (see elastic.go): plan re-arms the next
	// generation of scripted faults on every rebuilt group, and history
	// accumulates one forensic record per failed step ACROSS rebuilds —
	// DeadRanks/FailedStep describe only the current incarnation, so a
	// second failure during recovery would otherwise orphan the first's
	// post-mortem.
	plan    *comm.FaultPlan
	history []FailureRecord
}

// New assembles a data-parallel trainer over the replicas. It validates
// that the replica list is nonempty, miniBatch is positive, every replica
// is fully populated, all models share the Hamiltonian's site count and one
// parameter shape, the SR preconditioners are either absent everywhere or
// private identically-configured instances everywhere, and the initial
// parameter vectors are bit-identical.
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
				rep.SR.MaxIter != sr0.MaxIter || rep.SR.MaxStepNorm != sr0.MaxStepNorm ||
				rep.SR.Solver != sr0.Solver {
				return nil, fmt.Errorf("dist: replica %d SR configuration differs from replica 0; the lockstep CG needs identical settings", r)
			}
		}
	}
	t := &Trainer{
		H:     h,
		Reps:  reps,
		mb:    miniBatch,
		d:     reps[0].Model.NumParams(),
		bf:    float64(len(reps) * miniBatch),
		sr:    sr0 != nil,
		group: comm.NewGroup(len(reps)),
	}
	if err := t.CheckConsistent(); err != nil {
		return nil, fmt.Errorf("dist: replicas must start from identical parameters: %w", err)
	}
	t.state = make([]*replicaState, len(reps))
	for r, rep := range reps {
		workers := rep.Workers
		if workers < 1 {
			workers = 1
		}
		st := &replicaState{
			cm:      t.group.Rank(r),
			evals:   make([]nn.GradEvaluator, workers),
			batch:   sampler.NewBatch(miniBatch, n),
			locals:  make([]float64, miniBatch),
			gbuf:    tensor.NewVector(t.d),
			workers: workers,
			acc:     tensor.NewVector(t.d + 2),
		}
		for w := range st.evals {
			st.evals[w] = rep.Model.NewGradEvaluator()
		}
		st.bev = core.NewBatchedEval(rep.Model, rep.Eval, workers)
		st.wbuf = make([]float64, miniBatch)
		st.gparts = tensor.NewBatch(core.GradBlocks(miniBatch), t.d)
		st.pbuf = tensor.NewVector(t.d)
		if t.sr || (workers > 1 && st.bev == nil) {
			st.ows = tensor.NewBatch(miniBatch, t.d)
		}
		if st.bev != nil && !t.sr {
			rows := core.GradSlabRows
			if rows > miniBatch {
				rows = miniBatch
			}
			st.slabOws = tensor.NewBatch(rows, t.d)
		}
		if t.sr {
			st.ebuf = make([]float64, 2)
			st.gpack = comm.NewPacked(t.d, t.d)
			st.fisher = &distFisher{
				cm:      st.cm,
				ows:     st.ows,
				pack:    comm.NewPacked(t.d, 1),
				tbuf:    make([]float64, miniBatch),
				obar:    tensor.NewVector(t.d),
				lambda:  rep.SR.Lambda,
				batchN:  t.bf,
				workers: workers,
			}
			if r == 0 {
				st.fisher.applies = &t.fisherApplies
			}
		}
		t.state[r] = st
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

// Timings returns replica 0's cumulative per-phase wall-clock times.
func (t *Trainer) Timings() Timings { return t.timings }

// Traffic reports the cumulative all-reduce payload bytes and message count
// summed over replicas — the communication side of the scaling story. Under
// SR it includes the per-step energy and gradient collectives and every
// per-CG-iteration Fisher collective.
func (t *Trainer) Traffic() (bytes, messages int64) {
	for _, st := range t.state {
		bytes += st.cm.BytesSent()
		messages += st.cm.Messages()
	}
	return bytes, messages
}

// FisherApplies reports how many distributed Fisher-vector collectives the
// SR solves have issued so far (one per CG ApplyDot or StartApply, counted
// once per collective — every replica participates in each). Zero without
// SR.
func (t *Trainer) FisherApplies() int64 { return t.fisherApplies }

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
	for _, st := range t.state {
		s, a := st.cm.Collectives()
		sync += s
		async += a
	}
	return sync, async
}

// CollectivesByRank reports each rank's (blocking, non-blocking) collective
// counts individually.
func (t *Trainer) CollectivesByRank() [][2]int64 {
	out := make([][2]int64, len(t.state))
	for r, st := range t.state {
		s, a := st.cm.Collectives()
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

// SetLink attaches a simulated alpha-beta link to the trainer's collective
// group (see comm.Group.SetLink): every collective then costs the modeled
// ring time in wall clock, so classic-vs-pipelined timing comparisons show
// the latency that overlap hides. Call before training starts.
func (t *Trainer) SetLink(l comm.Link) {
	t.link = l
	t.group.SetLink(l)
}

// SetCollectiveDeadline bounds every blocking point of every collective the
// trainer issues (see comm.Group.SetDeadline): a replica that stops
// participating makes every survivor's Step return an error wrapping
// comm.ErrPeerLost within the deadline instead of hanging forever. Call
// before training starts; Recover carries the deadline onto the rebuilt
// group.
func (t *Trainer) SetCollectiveDeadline(d time.Duration) { t.group.SetDeadline(d) }

// InjectFailure scripts replica rank to die at its (after+1)-th collective
// (see comm.Group.FailAt) — the test seam behind the failure-injection
// matrix. Pair with SetCollectiveDeadline so survivors detect the death.
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

// FailedStep returns the iteration number of the Step that first returned
// an error (0 if none has).
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

// stopwatch accumulates phase durations on the timed replica and is a no-op
// everywhere else.
type stopwatch struct {
	on   bool
	last time.Time
}

func startWatch(on bool) stopwatch {
	sw := stopwatch{on: on}
	if on {
		sw.last = time.Now()
	}
	return sw
}

func (s *stopwatch) lap(d *time.Duration) {
	if !s.on {
		return
	}
	now := time.Now()
	*d += now.Sub(s.last)
	s.last = now
}

// replicaStep runs one replica's share of an iteration: sample, evaluate
// local energies, form the gradient contribution, synchronize, update. A
// non-nil error means a collective failed (peer lost, group aborted, or
// this rank killed by fault injection); the replica commits NO state in
// that case — the parameter update is the last action of the step and runs
// only after every collective has succeeded.
func (t *Trainer) replicaStep(r int) error {
	rep, st := t.Reps[r], t.state[r]
	sw := startWatch(r == 0)

	// Rebuild any stale parameter-derived caches on this replica's
	// coordinating goroutine before the sampler or evaluation paths fan
	// out across the replica's workers. Each replica owns a private model,
	// so replicas never contend on each other's caches.
	nn.Prewarm(rep.Model)
	rep.Smp.Sample(st.batch)
	sw.lap(&t.timings.Sample)

	// Intra-replica evaluation fans across the replica's workers; rows are
	// independent, so the values are bitwise identical for every worker
	// count (and for either evaluation path — the batched GEMM dispatch
	// reproduces the scalar bytes exactly).
	if st.bev != nil {
		st.bev.LocalEnergies(t.H, st.batch, st.workers, st.locals)
	} else {
		core.LocalEnergies(t.H, rep.Model, st.batch, st.workers, st.locals)
	}
	// One-pass sums, accumulated in sample order exactly like
	// stats.MeanStd so an L=1 trainer reproduces core.Trainer bitwise.
	var s, s2 float64
	for _, l := range st.locals {
		s += l
		s2 += l * l
	}
	sw.lap(&t.timings.Energy)

	if t.sr {
		if err := t.srStep(rep, st, s, s2, &sw); err != nil {
			return fmt.Errorf("dist: replica %d: %w", r, err)
		}
		return nil
	}

	// REINFORCE path: local covariance-style gradient (Eq. 5) with the
	// local-batch baseline, g = (2/mb) sum_k (l_k - localMean) O_k. The
	// reduction uses core's fixed-block scheme on every path (see
	// core.AddWeightedRows): block boundaries depend only on the sample
	// index, so the reduced bytes are bitwise invariant to the worker
	// count and to the batched/scalar choice.
	localMean := s / float64(t.mb)
	for k := 0; k < t.mb; k++ {
		st.wbuf[k] = 2 * (st.locals[k] - localMean) / float64(t.mb)
	}
	st.acc.Fill(0)
	grad := st.acc[:t.d]
	if st.bev != nil {
		// Batched streaming: O_k rows one core.GradSlabRows slab at a
		// time through the fused GEMM forward; slab boundaries align with
		// the reduction blocks, so the bytes equal a one-shot reduction
		// over a fully materialized O_k batch.
		for lo := 0; lo < t.mb; lo += core.GradSlabRows {
			hi := lo + core.GradSlabRows
			if hi > t.mb {
				hi = t.mb
			}
			slab := &sampler.Batch{N: hi - lo, Sites: st.batch.Sites,
				Bits: st.batch.Bits[lo*st.batch.Sites : hi*st.batch.Sites]}
			rows := &tensor.Batch{N: hi - lo, Dim: t.d, Data: st.slabOws.Data[:(hi-lo)*t.d]}
			st.bev.FillOws(slab, rows)
			core.AddWeightedRows(grad, rows, st.wbuf[lo:hi], st.gparts, st.workers)
		}
	} else if st.ows != nil {
		core.FillOws(st.evals, st.batch, st.ows, st.workers)
		core.AddWeightedRows(grad, st.ows, st.wbuf, st.gparts, st.workers)
	} else {
		// Serial streaming (workers == 1, scalar): the same fixed blocks,
		// folded in ascending order as they complete.
		for lo := 0; lo < t.mb; lo += core.GradBlockSize {
			hi := lo + core.GradBlockSize
			if hi > t.mb {
				hi = t.mb
			}
			st.pbuf.Fill(0)
			for k := lo; k < hi; k++ {
				st.evals[0].GradLogPsi(st.batch.Row(k), st.gbuf)
				st.pbuf.AXPY(st.wbuf[k], st.gbuf)
			}
			grad.Add(st.pbuf)
		}
	}
	st.acc[t.d] = s
	st.acc[t.d+1] = s2
	sw.lap(&t.timings.Grad)

	// One ring all-reduce carries the gradient and the energy statistics.
	if err := st.cm.AllReduceSum(st.acc); err != nil {
		return fmt.Errorf("dist: replica %d: gradient reduction: %w", r, err)
	}
	sw.lap(&t.timings.Sync)

	// Average the summed gradient; every replica performs the identical
	// floating-point operations on identical bytes, so parameters stay
	// bit-identical without any broadcast.
	grad.Scale(1 / float64(len(t.Reps)))
	rep.Opt.Step(rep.Model.Params(), grad)
	nn.InvalidateParams(rep.Model)
	sw.lap(&t.timings.Update)
	return nil
}

// srStep is the distributed stochastic-reconfiguration tail of an
// iteration. Unlike the REINFORCE path it centers the gradient with the
// GLOBAL batch mean, so the update equals serial SR on the pooled batch:
//
//  1. a 2-float all-reduce combines the energy statistics (the global mean
//     must exist before the gradient is formed),
//  2. one packed all-reduce carries [gradient partial | O-row sum] — the
//     latter becomes obar for the Fisher operator,
//  3. the CG solve issues one packed Fisher collective per iteration
//     through the replica's distFisher op.
//
// Every quantity entering the update is reduced to identical bytes first,
// so the bit-identity invariant holds exactly as in the REINFORCE path.
// A failed collective — including one inside the CG solve, surfaced through
// the distFisher's sticky error — returns before the parameter update, so a
// degraded step commits nothing.
func (t *Trainer) srStep(rep Replica, st *replicaState, s, s2 float64, sw *stopwatch) error {
	st.ebuf[0], st.ebuf[1] = s, s2
	if err := st.cm.AllReduceSum(st.ebuf); err != nil {
		return fmt.Errorf("energy reduction: %w", err)
	}
	sw.lap(&t.timings.Sync)
	mean := st.ebuf[0] / t.bf

	if st.bev != nil {
		st.bev.FillOws(st.batch, st.ows)
	} else {
		core.FillOws(st.evals, st.batch, st.ows, st.workers)
	}
	st.gpack.Zero()
	grad := tensor.Vector(st.gpack.Section(0))
	osum := tensor.Vector(st.gpack.Section(1))
	for k := 0; k < t.mb; k++ {
		st.wbuf[k] = 2 * (st.locals[k] - mean) / t.bf
	}
	core.AddWeightedRows(grad, st.ows, st.wbuf, st.gparts, st.workers)
	// The O-row sum is the same row-blocked kernel call NewBatchFisher makes
	// for obar (four rows per pass, each element still summed one row at a
	// time in ascending order), so it matches the serial accumulation
	// bit-for-bit at L=1.
	st.ows.AddWeightedRows(osum, nil, 0, t.d)
	sw.lap(&t.timings.Grad)

	if err := st.gpack.AllReduce(st.cm); err != nil {
		return fmt.Errorf("gradient reduction: %w", err)
	}
	sw.lap(&t.timings.Sync)

	// obar = (reduced O-row sum)/B, the same arithmetic NewBatchFisher
	// applies serially, so an L=1 trainer matches core.Trainer bitwise.
	copy(st.fisher.obar, osum)
	st.fisher.obar.Scale(1 / t.bf)
	delta := rep.SR.PreconditionOp(st.fisher, grad)
	if err := st.fisher.err; err != nil {
		// A mid-solve collective failed: the solver bailed on the poisoned
		// operator (see distFisher.fail) and delta holds a partial iterate.
		// Commit nothing — the SR warm start is rewound by recovery.
		return fmt.Errorf("fisher solve: %w", err)
	}
	sw.lap(&t.timings.Precond)

	rep.Opt.Step(rep.Model.Params(), delta)
	nn.InvalidateParams(rep.Model)
	sw.lap(&t.timings.Update)
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
func (t *Trainer) Step(iter int) (core.IterStats, error) {
	if err := t.group.Err(); err != nil {
		// Fail fast WITHOUT taking a new snapshot: the snapshot of the step
		// that failed is the recovery point and must not be overwritten.
		return core.IterStats{}, fmt.Errorf("dist: step %d on condemned group (Recover first): %w", iter, err)
	}
	t.snapshot(iter)
	errs := make([]error, len(t.Reps))
	var wg sync.WaitGroup
	wg.Add(len(t.Reps))
	for r := range t.Reps {
		go func(r int) {
			defer wg.Done()
			errs[r] = t.replicaStep(r)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Condemn the group even if the failure never reached a deadline
		// (e.g. the killed rank's own immediate error): every rank must see
		// subsequent collectives fail fast.
		t.group.Abort(err)
		if t.failedIter == 0 {
			t.failedIter = iter
			// Record the forensics NOW, while this incarnation's group still
			// owns them: a later Recover/Shrink rebuild starts a fresh group
			// whose DeadRanks/FailedStep describe only its own failure.
			// Reading DeadRanks here is safe — wg.Wait joined the replica
			// goroutines that set the death flags.
			t.history = append(t.history, FailureRecord{Step: iter, Dead: t.group.DeadRanks()})
		}
		return core.IterStats{}, fmt.Errorf("dist: step %d failed: %w", iter, err)
	}
	// Every replica holds the same reduced payload; read replica 0.
	st := t.state[0]
	var mean, v float64
	if t.sr {
		mean = st.ebuf[0] / t.bf
		v = st.ebuf[1]/t.bf - mean*mean
	} else {
		mean = st.acc[t.d] / t.bf
		v = st.acc[t.d+1]/t.bf - mean*mean
	}
	if v < 0 {
		v = 0 // cancellation guard, as in stats.MeanStd
	}
	out := core.IterStats{Iter: iter, Batch: len(t.Reps) * t.mb, Energy: mean, Std: math.Sqrt(v)}
	if t.sr {
		solve := t.Reps[0].SR.LastSolve()
		out.SRIters, out.SRResidual = solve.Iterations, solve.Residual
	}
	return out, nil
}

// snapshot captures every replica's sampler stream position and SR solver
// state at step entry — the rewind point a mid-step failure recovers to.
// It runs serially before the replica goroutines launch, so no capture
// races a draw. No-op on trainers that cannot recover (see notRecoverable).
func (t *Trainer) snapshot(iter int) {
	if t.notRecoverable != nil {
		return
	}
	for r, rep := range t.Reps {
		t.snapSmp[r] = rep.Smp.(sampler.Resumable).Snapshot()
		if rep.SR != nil {
			t.snapSR[r] = rep.SR.CaptureState()
		}
	}
	t.snapIter = iter
	t.snapValid = true
}

// Train runs iters iterations, invoking cb (if non-nil) after each, and
// returns the per-iteration history. Iterations are numbered from 1 as in
// core.Trainer. On a failed step it returns the history of the completed
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
// cause.
func (t *Trainer) Evaluate(batch int) (mean, std float64, err error) {
	if gerr := t.group.Err(); gerr != nil {
		return 0, 0, fmt.Errorf("dist: evaluate on condemned group (Recover first): %w", gerr)
	}
	if batch <= 0 {
		batch = 1024
	}
	l := len(t.Reps)
	// After the all-reduce every rank holds identical sums; keep rank 0's.
	var reduced tensor.Vector
	errs := make([]error, l)
	var wg sync.WaitGroup
	wg.Add(l)
	for r := 0; r < l; r++ {
		go func(r int) {
			defer wg.Done()
			// Replica r evaluates rows [r*batch/l, (r+1)*batch/l).
			cnt := (r+1)*batch/l - r*batch/l
			acc := tensor.NewVector(3)
			if cnt > 0 {
				b := sampler.NewBatch(cnt, t.H.N())
				t.Reps[r].Smp.Sample(b)
				locals := make([]float64, cnt)
				if t.state[r].bev != nil {
					t.state[r].bev.LocalEnergies(t.H, b, t.state[r].workers, locals)
				} else {
					core.LocalEnergies(t.H, t.Reps[r].Model, b, t.state[r].workers, locals)
				}
				for _, e := range locals {
					acc[0] += e
					acc[1] += e * e
				}
				acc[2] = float64(cnt)
			}
			if rerr := t.state[r].cm.AllReduceSum(acc); rerr != nil {
				errs[r] = fmt.Errorf("dist: replica %d: evaluate reduction: %w", r, rerr)
				return
			}
			if r == 0 {
				reduced = acc
			}
		}(r)
	}
	wg.Wait()
	if jerr := errors.Join(errs...); jerr != nil {
		t.group.Abort(jerr)
		return 0, 0, jerr
	}
	acc := reduced
	if acc[2] == 0 {
		return 0, 0, nil
	}
	mean = acc[0] / acc[2]
	v := acc[1]/acc[2] - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v), nil
}
