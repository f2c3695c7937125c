// Package core implements the paper's primary contribution: the VQMC
// optimization loop. Each iteration samples a batch from the trial state,
// evaluates local energies l(x) = (H psi)(x)/psi(x) through the sparse row
// structure (Eq. 3), forms the covariance-style gradient estimator (Eq. 5),
// optionally preconditions it with stochastic reconfiguration, and applies
// an optimizer step. The loop also tracks the standard deviation of the
// stochastic objective, which vanishes at an exact eigenstate (Eq. 4) and is
// the blue curve of the paper's Figure 2.
//
// The iteration is written once, as the step of one rank of a comm group
// (ReplicaStep, step.go). Package dist drives L of them on goroutines, and
// is the one engine the library and the experiments train on (at L = 1 for
// a single device). Trainer drives one ReplicaStep on a private 1-rank
// group, where every collective is the identity; only the benchmark and
// tests still build it. There is no second, serial implementation.
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
)

// Model is the wavefunction contract the step needs: amplitudes and the
// batch evaluator the step runs its local energies and O_k rows through,
// plus the scalar flip cache that the MCMC samplers walk and the reference
// LocalEnergies is written in. All four neural families satisfy it.
type Model interface {
	nn.Wavefunction
	nn.CacheBuilder
	nn.BatchEvaluatorBuilder
}

// LocalEnergies fills out[k] with the local energy of batch row k:
// l(x) = H_xx + sum_b H[x,x^b] * psi(x^b)/psi(x), through the model's scalar
// FlipCache, one per worker. It is the documented reference, not the step's
// path: BatchedEval.LocalEnergies must reproduce it bit for bit, and the
// plain-loop oracle and the dense-matrix test are written against it. For
// diagonal Hamiltonians (Max-Cut) no wavefunction evaluation happens at all.
func LocalEnergies(h hamiltonian.Hamiltonian, model nn.CacheBuilder, b *sampler.Batch, workers int, out []float64) {
	// Materialize any lazy parameter-derived caches on this goroutine
	// before fanning out, so no worker hits a first-use rebuild.
	nn.Prewarm(model)
	flips := h.FlipTerms()
	if len(flips) == 0 {
		// Diagonal-only Hamiltonians do O(n) work per row; the grain keeps
		// tiny per-worker ranges from being dominated by dispatch overhead.
		parallel.ForGrain(b.N, workers, diagGrainRows, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = h.Diagonal(b.Row(k))
			}
		})
		return
	}
	parallel.For(b.N, workers, func(lo, hi int) {
		cache := model.NewFlipCache(b.Row(lo))
		for k := lo; k < hi; k++ {
			if k > lo {
				cache.Reset(b.Row(k))
			}
			l := h.Diagonal(b.Row(k))
			for _, ft := range flips {
				l += float64(ft.Amp * math.Exp(cache.Delta(ft.Bit)))
			}
			out[k] = l
		}
	})
}

// IterStats summarizes one training iteration.
type IterStats struct {
	Iter int
	// Batch is the number of samples behind this iteration's statistics:
	// the configured batch size serially, the global effective batch
	// (devices x mini-batch) in distributed training — where elastic
	// membership can change it mid-run, and the honest per-iteration record
	// of that change lives here.
	Batch  int
	Energy float64 // batch mean of the local energy (red curve, Fig. 2)
	Std    float64 // batch std-dev of the local energy (blue curve, Fig. 2)
	// SRIters and SRResidual report the stochastic-reconfiguration CG solve
	// of this iteration (zero when SR is disabled): iterations run and the
	// final relative residual.
	SRIters    int
	SRResidual float64
}

// Timings accumulates wall-clock time per phase across iterations.
type Timings struct {
	Sample, Energy, Grad, Update time.Duration
}

// Total returns the summed training time.
func (t Timings) Total() time.Duration { return t.Sample + t.Energy + t.Grad + t.Update }

// Config tunes the trainer. Zero values select the paper's defaults.
type Config struct {
	BatchSize int // training batch size (paper: 1024)
	Workers   int // CPU parallelism; <=0 means GOMAXPROCS
	SR        *optimizer.SR
}

// Trainer runs the VQMC loop for one (Hamiltonian, model, sampler,
// optimizer) quadruple: the 1-rank driver of ReplicaStep, bitwise equal to
// a one-replica dist.Trainer and kept for the benchmark and tests.
type Trainer struct {
	H     hamiltonian.Hamiltonian
	Model Model
	Smp   sampler.Sampler
	Opt   optimizer.Optimizer

	cfg  Config
	step *ReplicaStep
	iter int
}

// New assembles a trainer. BatchSize defaults to 1024.
func New(h hamiltonian.Hamiltonian, model Model, smp sampler.Sampler, opt optimizer.Optimizer, cfg Config) *Trainer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.MaxWorkers()
	}
	return &Trainer{H: h, Model: model, Smp: smp, Opt: opt, cfg: cfg,
		step: NewReplicaStep(h, Replica{Model: model, Smp: smp, Opt: opt, SR: cfg.SR,
			Workers: cfg.Workers}, comm.NewGroup(1).Rank(0), cfg.BatchSize)}
}

// Config returns the effective configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Timings returns cumulative per-phase wall-clock times: the step's six
// phases folded onto four, Grad taking the (1-rank, identity) collectives
// and Update the SR solve.
func (t *Trainer) Timings() Timings {
	p := t.step.Timings()
	return Timings{Sample: p.Sample, Energy: p.Energy, Grad: p.Grad + p.Sync, Update: p.Precond + p.Update}
}

// Step runs one VQMC iteration and returns its statistics. The private
// 1-rank group has no peer to lose and no fault script, so its collectives
// cannot fail. Step has no error return, so an error — a collective's, which
// is a bug, or ErrNonFinite — panics with the cause.
func (t *Trainer) Step() IterStats {
	t.iter++
	st, err := t.step.Run(t.iter)
	if err != nil {
		panic(fmt.Errorf("core: step %d on the private 1-rank group: %w", t.iter, err))
	}
	return st
}

// Train runs iters iterations, invoking cb (if non-nil) after each, and
// returns the per-iteration statistics.
func (t *Trainer) Train(iters int, cb func(IterStats)) []IterStats {
	out := make([]IterStats, 0, iters)
	for i := 0; i < iters; i++ {
		s := t.Step()
		out = append(out, s)
		if cb != nil {
			cb(s)
		}
	}
	return out
}

// Evaluate draws a fresh batch and returns the mean and standard deviation
// of the local energy without updating parameters (the paper's testing
// protocol: 1024 evaluation samples).
func (t *Trainer) Evaluate(batchSize int) (mean, std float64) {
	mean, std, _, _ = t.EvaluateBest(batchSize)
	return mean, std
}

// EvaluateBest additionally returns the lowest local energy in the
// evaluation batch and the configuration achieving it — the natural metric
// when VQMC is used as a combinatorial-optimization heuristic.
func (t *Trainer) EvaluateBest(batchSize int) (mean, std, best float64, argBest []int) {
	if batchSize <= 0 {
		batchSize = 1024
	}
	b, locals := sampler.NewBatch(batchSize, t.H.N()), make([]float64, batchSize)
	t.Smp.Sample(b)
	t.step.LocalEnergies(b, locals)
	mean, std = stats.MeanStd(locals)
	best = locals[0]
	kBest := 0
	for k, l := range locals {
		if l < best {
			best, kBest = l, k
		}
	}
	argBest = append([]int(nil), b.Row(kBest)...)
	return mean, std, best, argBest
}
