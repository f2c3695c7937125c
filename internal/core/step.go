package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// GradSlabRows is the slab size of the REFERENCE streaming gradient — FillOws
// into this many O-rows, then AddWeightedRows — which the benchmark's
// unrolled twin still runs and the step no longer does. A multiple of
// GradBlockSize, so the slabbed reduction is bitwise one AddWeightedRows over
// the full batch, which in turn is bitwise BatchedEval.AddWeightedGrad.
const GradSlabRows = 128

// ErrNonFinite is wrapped by the error ReplicaStep.Run returns when an
// iteration's reduced energy mean or variance (phase "energy") or an element
// of its update (phase "update") is NaN or infinite. Both are identical
// bytes on every rank, so every rank of the group returns it from the same
// iteration, after the same collectives. The step commits nothing:
// parameters and optimizer state keep their step-entry values.
var ErrNonFinite = errors.New("core: non-finite training state")

// PhaseTimings decomposes one rank's cumulative wall-clock time by phase —
// the per-iteration breakdown behind the paper's Figure 3 discussion. Sync
// covers the pre-solve all-reduces (and therefore any load-imbalance wait);
// Precond covers the SR CG solve including the per-iteration collectives it
// issues.
type PhaseTimings struct {
	Sample, Energy, Grad, Sync, Precond, Update time.Duration
}

// Total returns the summed time across phases.
func (t PhaseTimings) Total() time.Duration {
	return t.Sample + t.Energy + t.Grad + t.Sync + t.Precond + t.Update
}

// lap adds the time since *last to *d and moves *last to now.
func lap(last *time.Time, d *time.Duration) {
	now := time.Now()
	*d += now.Sub(*last)
	*last = now
}

// Replica is one rank's share of a run: a full copy of the model, a sampler
// drawing from that copy with its own rng stream, and a private optimizer
// instance.
type Replica struct {
	Model Model
	Smp   sampler.Sampler
	Opt   optimizer.Optimizer
	// SR optionally preconditions the gradient with stochastic
	// reconfiguration, sharded over the ranks of the group.
	SR *optimizer.SR
	// Workers is how many ways this replica's mini-batch is shared out
	// (<=1 means serial): the model's batch evaluator is built with that
	// many single-threaded sub-evaluators, each taking one contiguous share
	// of a call's rows, and the fixed-block gradient reduction and the
	// Fisher sweep fan out as wide. Smp carries its own fan-out (the
	// facade builds it Workers wide too); sampler.Auto draws from one
	// stream at any width. The worker count is a pure throughput knob:
	// trained parameters are bitwise identical for any mix of worker
	// counts across replicas.
	Workers int
}

// ReplicaStep is the VQMC iteration of ONE rank of a comm group, and the
// only implementation of it: sample a private mini-batch, evaluate local
// energies, reduce them to one-pass sums, form the centred gradient through
// the fixed-block reduction — fused into the model's backward pass for
// REINFORCE (no O-row is written), over the stored O-rows the Fisher solve
// needs under SR — combine it across the group, optionally
// precondition it with the sharded Fisher-CG solve, update, invalidate.
// Trainer runs it inline on a private 1-rank group — where every collective
// is the identity, the averaging multiplies by exactly 1.0, and the global
// batch is the mini-batch — and dist.Trainer runs L of them on goroutines.
//
// Every quantity entering the update is reduced to identical bytes on every
// rank first and the update is the last action of the step, after the last
// collective: ranks that start bit-identical stay so with no broadcast, and
// a step that returns an error has committed nothing. The workspace is
// allocated once, so the steady-state loop allocates nothing of its own, and
// without SR none of it is of order miniBatch x d or slab x d: the evaluator
// owns O(Workers x d) partials plus its O(slab x (n + h)) activations.
type ReplicaStep struct {
	h       hamiltonian.Hamiltonian
	rep     Replica // Workers normalized to >= 1
	cm      *comm.Comm
	timings PhaseTimings

	bev    *BatchedEval // the model's batch evaluator, Workers wide
	batch  *sampler.Batch
	locals []float64
	wbuf   []float64 // per-sample gradient coefficients
	// ows holds the mini-batch's O_k rows and gparts the fixed-block
	// reduction partials over them: SR only (the Fisher solve sweeps the
	// rows every CG iteration), nil otherwise.
	ows, gparts *tensor.Batch
	// pack is the gradient collective: [gradient (d) | energy sum, sum of
	// squares] for REINFORCE, so one all-reduce moves everything; [gradient
	// (d) | O-row sum (d)] under SR, where sums travels first in a
	// collective of its own because the GLOBAL mean must exist before the
	// gradient is formed. sums aliases pack's tail for REINFORCE.
	pack   *comm.Packed
	sums   []float64
	fisher *optimizer.ShardedFisher
}

// NewReplicaStep assembles the step of rank cm over its replica. Every rank
// of the group must use the same miniBatch.
func NewReplicaStep(h hamiltonian.Hamiltonian, rep Replica, cm *comm.Comm, miniBatch int) *ReplicaStep {
	rep.Workers = max(rep.Workers, 1)
	d := rep.Model.NumParams()
	s := &ReplicaStep{h: h, rep: rep, cm: cm,
		bev:    NewBatchedEval(rep.Model, EvalAuto, rep.Workers),
		batch:  sampler.NewBatch(miniBatch, h.N()),
		locals: make([]float64, miniBatch),
		wbuf:   make([]float64, miniBatch),
	}
	if rep.SR != nil {
		s.ows = tensor.NewBatch(miniBatch, d)
		s.gparts = tensor.NewBatch(GradBlocks(miniBatch), d)
		s.pack = comm.NewPacked(d, d)
		s.sums = make([]float64, 2)
		s.fisher = optimizer.NewShardedFisher(cm, s.ows, rep.SR.Lambda, rep.Workers)
	} else {
		s.pack = comm.NewPacked(d, 2)
		s.sums = s.pack.Section(1)
	}
	return s
}

// Timings returns this rank's cumulative per-phase wall-clock times.
func (s *ReplicaStep) Timings() PhaseTimings { return s.timings }

// FisherApplies reports how many Fisher-vector collectives this rank's SR
// solves have issued so far. Zero without SR.
func (s *ReplicaStep) FisherApplies() int64 {
	if s.fisher == nil {
		return 0
	}
	return s.fisher.Applies()
}

// LocalEnergies fills out[k] with the local energy of row k of b under the
// rank's model.
func (s *ReplicaStep) LocalEnergies(b *sampler.Batch, out []float64) {
	s.bev.LocalEnergies(s.h, b, s.rep.Workers, out)
}

// Run executes the rank's share of iteration iter and returns the GLOBAL
// batch statistics (identical on every rank). A non-nil error means a
// collective failed — peer lost, group aborted, or this rank killed by fault
// injection — or the iteration went non-finite (ErrNonFinite), and the rank
// committed nothing. A solve that went non-finite has still overwritten the
// SR warm start; the caller rewinds it.
func (s *ReplicaStep) Run(iter int) (IterStats, error) {
	last := time.Now()
	mb, d := s.batch.N, s.rep.Model.NumParams()
	ranks := s.cm.Size()
	global := float64(ranks * mb)

	// Rebuild any stale parameter-derived caches on this goroutine before
	// the sampler or the evaluation paths fan work out to workers.
	nn.Prewarm(s.rep.Model)
	s.rep.Smp.Sample(s.batch)
	lap(&last, &s.timings.Sample)

	// Rows are independent, so the values are bitwise identical for every
	// worker count. The one-pass sums accumulate in sample order, exactly
	// like stats.MeanStd.
	s.LocalEnergies(s.batch, s.locals)
	var e, e2 float64
	for _, l := range s.locals {
		e += l
		e2 += float64(l * l)
	}
	lap(&last, &s.timings.Energy)

	// REINFORCE centres with the LOCAL mean and averages the per-rank
	// gradients (Eq. 5 per mini-batch); SR centres with the GLOBAL mean, so
	// the update equals serial SR on the pooled batch.
	mean, norm := e/float64(mb), float64(mb)
	if s.rep.SR != nil {
		s.sums[0], s.sums[1] = e, e2
		if err := s.cm.AllReduceSum(s.sums); err != nil {
			return IterStats{}, fmt.Errorf("energy reduction: %w", err)
		}
		lap(&last, &s.timings.Sync)
		mean, norm = s.sums[0]/global, global
	}
	for k, l := range s.locals {
		s.wbuf[k] = 2 * (l - mean) / norm
	}

	// g = sum_k w_k O_k through the fixed-block reduction: block boundaries
	// depend only on the sample index, so the bytes are invariant to the
	// worker count. REINFORCE has the evaluator reduce inside its backward
	// pass; SR writes the O-rows, which stay for the solve, and reduces them
	// — the same bytes, by the nn.BatchEvaluator weighted-reduce contract.
	s.pack.Zero()
	grad, tail := tensor.Vector(s.pack.Section(0)), tensor.Vector(s.pack.Section(1))
	if s.rep.SR != nil {
		s.bev.FillOws(s.batch, s.ows)
		AddWeightedRows(grad, s.ows, s.wbuf, s.gparts, s.rep.Workers)
		s.ows.AddWeightedRows(tail, nil, 0, d) // O-row sum, the Fisher operator's obar
	} else {
		s.bev.AddWeightedGrad(s.batch, s.wbuf, grad)
		tail[0], tail[1] = e, e2
	}
	lap(&last, &s.timings.Grad)

	if err := s.pack.AllReduce(s.cm); err != nil {
		return IterStats{}, fmt.Errorf("gradient reduction: %w", err)
	}
	lap(&last, &s.timings.Sync)

	mean = s.sums[0] / global
	v := s.sums[1]/global - float64(mean*mean)
	if v < 0 {
		v = 0 // cancellation guard, as in stats.MeanStd
	}
	if !finite(mean) || !finite(v) {
		return IterStats{}, nonFinite(iter, "energy")
	}
	st := IterStats{Iter: iter, Batch: ranks * mb, Energy: mean, Std: math.Sqrt(v)}
	delta := grad
	if s.rep.SR != nil {
		var err error
		if delta, err = s.precondition(grad, tail); err != nil {
			return IterStats{}, err
		}
		solve := s.rep.SR.LastSolve()
		st.SRIters, st.SRResidual = solve.Iterations, solve.Residual
		lap(&last, &s.timings.Precond)
	} else {
		grad.Scale(1 / float64(ranks))
	}
	for _, x := range delta {
		if !finite(x) {
			return IterStats{}, nonFinite(iter, "update")
		}
	}

	s.rep.Opt.Step(s.rep.Model.Params(), delta)
	// The in-place parameter update invalidates any parameter-derived
	// cache (MADE's masked-weight product for the batched GEMM path).
	nn.InvalidateParams(s.rep.Model)
	lap(&last, &s.timings.Update)
	return st, nil
}

// precondition solves (S + lambda I) delta = grad on the rank's sharded
// Fisher operator, whose batch mean of O comes from the reduced O-row sum.
// A collective that failed inside the solve made the solver bail on the
// poisoned operator and left a partial iterate: that is an error here, so
// the step commits nothing and recovery rewinds the SR warm start.
func (s *ReplicaStep) precondition(grad, osum tensor.Vector) (tensor.Vector, error) {
	s.fisher.SetMean(osum)
	delta := s.rep.SR.PreconditionOp(s.fisher, grad)
	if err := s.fisher.Err(); err != nil {
		return nil, fmt.Errorf("fisher solve: %w", err)
	}
	return delta, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func nonFinite(iter int, phase string) error {
	return fmt.Errorf("iteration %d, %s phase: %w", iter, phase, ErrNonFinite)
}
