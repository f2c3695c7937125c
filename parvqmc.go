// Package parvqmc is a scalable variational quantum Monte Carlo (VQMC)
// library, reproducing "Overcoming barriers to scalability in variational
// quantum Monte Carlo" (Zhao, De, Chen, Stokes, Veerapaneni; SC '21).
//
// VQMC minimizes the Rayleigh quotient of an exponentially large sparse
// symmetric matrix H over a family of neural trial states by alternating
// Monte Carlo sampling with stochastic gradient steps. This package exposes
// the two sampling strategies the paper contrasts — exact autoregressive
// sampling from a MADE wavefunction (embarrassingly parallel, no burn-in)
// and Metropolis-Hastings MCMC from an RBM — together with SGD/Adam/
// stochastic-reconfiguration optimizers, data-parallel multi-device
// training with ring all-reduce, classical Max-Cut baselines, and exact
// diagonalization for validation.
//
// Quick start:
//
//	problem := parvqmc.TIM(16, 1)
//	result, err := parvqmc.Train(problem, parvqmc.Options{})
//	// result.Energy ~ ground-state energy of the 2^16-dim Hamiltonian
package parvqmc

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// Problem is a ground-state problem instance: a sparse symmetric matrix of
// dimension 2^Sites presented through its efficient row structure.
type Problem struct {
	kind string
	ham  hamiltonian.Hamiltonian
	g    *graph.Graph // non-nil for Max-Cut
}

// TIM builds the paper's disordered transverse-field Ising instance on n
// sites: alpha_i ~ U(0,1), beta_i, beta_ij ~ U(-1,1), sampled once from
// seed and fixed.
func TIM(n int, seed uint64) *Problem {
	return &Problem{kind: "tim", ham: hamiltonian.RandomTIM(n, rng.New(seed))}
}

// MaxCut builds the paper's Max-Cut instance: a dense random graph
// round((B+B^T)/2) with B_ij ~ Bernoulli(1/2), encoded as a diagonal
// Hamiltonian whose ground state is a maximum cut.
func MaxCut(n int, seed uint64) *Problem {
	g := graph.RandomBernoulli(n, rng.New(seed))
	return &Problem{kind: "maxcut", ham: hamiltonian.NewMaxCut(g), g: g}
}

// QUBO builds a quadratic unconstrained binary optimization problem
// minimize sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j over x in {0,1}^n. The
// coefficient matrix is row-major n x n; only the diagonal and strict upper
// triangle are read. VQMC then acts as a stochastic heuristic solver
// (Section 2.4 of the paper generalizes Max-Cut to this family).
func QUBO(q []float64, n int) *Problem {
	return &Problem{kind: "qubo", ham: hamiltonian.NewQUBO(q, n)}
}

// RandomQUBO builds a QUBO with coefficients drawn uniformly from [-1, 1].
func RandomQUBO(n int, seed uint64) *Problem {
	return &Problem{kind: "qubo", ham: hamiltonian.RandomQUBO(n, rng.New(seed))}
}

// Sites returns the number of binary sites n (the matrix dimension is 2^n).
func (p *Problem) Sites() int { return p.ham.N() }

// Kind returns "tim", "maxcut" or "qubo".
func (p *Problem) Kind() string { return p.kind }

// TotalEdgeWeight returns the graph's total edge weight (Max-Cut only).
func (p *Problem) TotalEdgeWeight() float64 {
	if p.g == nil {
		return 0
	}
	return p.g.TotalWeight()
}

// CutOf converts an energy to a cut value for Max-Cut problems.
func (p *Problem) CutOf(energy float64) (float64, bool) {
	mc, ok := p.ham.(*hamiltonian.MaxCut)
	if !ok {
		return 0, false
	}
	return mc.CutFromEnergy(energy), true
}

// CutOfAssignment returns the cut of a 0/1 assignment (Max-Cut only).
func (p *Problem) CutOfAssignment(x []int) (float64, bool) {
	if p.g == nil {
		return 0, false
	}
	return p.g.CutValue(x), true
}

// ExactGroundEnergy computes the exact minimal eigenvalue by Lanczos
// (TIM, n <= 22) or exhaustive scan (diagonal problems, n <= 24).
func (p *Problem) ExactGroundEnergy() (float64, error) {
	if len(p.ham.FlipTerms()) == 0 {
		e, _, err := exact.GroundStateDiagonal(p.ham, 0)
		return e, err
	}
	res, err := exact.GroundState(p.ham, 0, 7)
	return res.Energy, err
}

// Options configures a training run. The zero value reproduces the paper's
// default configuration: MADE wavefunction with h = 5(ln n)^2, exact
// autoregressive sampling, Adam with learning rate 0.01, batch 1024, 300
// iterations.
type Options struct {
	// Model selects the wavefunction: "made" (default), "rbm" or "nade".
	Model string
	// Hidden overrides the latent size (default: DefaultHidden — 5(ln n)^2
	// for MADE and NADE, n for the RBM).
	Hidden int
	// Sampler selects "auto" (exact ancestral sampling, default for the
	// autoregressive models: the whole batch's uniforms are pre-drawn from
	// one stream and handed to the model's batched sampler, the rows shared
	// over Workers — the bits are those of sample-at-a-time ancestral
	// sampling through the incremental evaluator, at every Workers),
	// "auto-naive" (the same sampler over Algorithm 1's evaluator:
	// n forward passes per sample; MADE only, the other families are
	// inherently incremental), "mcmc" (default for RBM) or "gibbs" (block
	// Gibbs, RBM only).
	Sampler string
	// Optimizer is "adam" (default, lr 0.01) or "sgd" (lr 0.1).
	Optimizer string
	// LearningRate overrides the optimizer default.
	LearningRate float64
	// StochasticReconfig preconditions gradients with the Fisher matrix
	// (SR; natural gradient). The paper pairs it with SGD.
	StochasticReconfig bool
	// BatchSize is Train's samples per iteration (default 1024).
	// TrainDistributed takes its per-device mini-batch as an argument.
	BatchSize int
	// Iterations is the number of training steps (default 300).
	Iterations int
	// EvalBatch is the evaluation batch (default 1024).
	EvalBatch int
	// Workers is how many ways each device's batch is shared out for
	// sampling, local-energy and gradient evaluation (default GOMAXPROCS /
	// devices, at least 1): rows are cut into that many contiguous shares
	// once per evaluator call and each share runs single-threaded. It is a
	// pure throughput knob: ancestral sampling draws from one random stream
	// whatever Workers is, the Markov samplers do not use it, and
	// evaluation is bitwise independent of it, so no result depends on it.
	Workers int
	// Seed drives all randomness (default 1).
	Seed uint64
	// MCMC settings (zero values = paper defaults: 2 chains, burn-in
	// 3n+100, no thinning).
	MCMCChains, MCMCBurnIn, MCMCThin int
	// Elastic enables supervised fault handling: on a replica failure the
	// run replaces the dead rank (bit-identical resume, with bounded
	// retries), falls back to continuing on the survivors as a legal
	// smaller run, re-grows to the original width after a stretch of clean
	// steps, and aborts with a final checkpoint only below the MinReplicas
	// floor.
	Elastic bool
	// MinReplicas is the elastic membership floor (default 1: shrink as
	// long as anyone survives); it requires Elastic.
	MinReplicas int
	// CheckpointDir, when non-empty, is where elastic recovery, growth and
	// final checkpoints are written; it requires Elastic. Empty keeps
	// recovery checkpoints in memory and skips the final artifact.
	CheckpointDir string
}

func (o *Options) fill(n int) error {
	if o.Model == "" {
		o.Model = "made"
	}
	o.Model = strings.ToLower(o.Model)
	if !slices.Contains(nn.Kinds(), o.Model) {
		return fmt.Errorf("parvqmc: unknown model %q (want %s)", o.Model, strings.Join(nn.Kinds(), ", "))
	}
	if o.Sampler == "" {
		if o.Model == "rbm" {
			o.Sampler = "mcmc"
		} else {
			o.Sampler = "auto"
		}
	}
	o.Sampler = strings.ToLower(o.Sampler)
	if o.Model == "rbm" && o.Sampler != "mcmc" && o.Sampler != "gibbs" {
		return fmt.Errorf("parvqmc: RBM requires an approximate sampler (mcmc or gibbs); it is unnormalized")
	}
	if o.Model != "rbm" && o.Sampler == "gibbs" {
		return fmt.Errorf("parvqmc: the gibbs sampler requires the rbm model (bipartite structure)")
	}
	if o.Hidden <= 0 {
		o.Hidden = DefaultHidden(o.Model, n)
	}
	if o.Optimizer == "" {
		o.Optimizer = "adam"
	}
	o.Optimizer = strings.ToLower(o.Optimizer)
	if o.Optimizer != "adam" && o.Optimizer != "sgd" {
		return fmt.Errorf("parvqmc: unknown optimizer %q", o.Optimizer)
	}
	if o.LearningRate <= 0 {
		if o.Optimizer == "adam" {
			o.LearningRate = 0.01
		} else {
			o.LearningRate = 0.1
		}
	}
	if o.CheckpointDir != "" && !o.Elastic {
		return fmt.Errorf("parvqmc: Options.CheckpointDir is set without Options.Elastic; only the elastic supervisor writes checkpoints")
	}
	if o.MinReplicas != 0 && !o.Elastic {
		return fmt.Errorf("parvqmc: Options.MinReplicas is set without Options.Elastic; only the elastic supervisor has a membership floor")
	}
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.EvalBatch <= 0 {
		o.EvalBatch = 1024
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// IterationStat is one recorded training iteration.
type IterationStat struct {
	Iteration int
	// Batch is the global number of samples behind this iteration's
	// statistics — devices x mini-batch in distributed training, where
	// elastic membership changes can move it mid-run.
	Batch  int
	Energy float64 // batch mean local energy
	Std    float64 // batch std-dev (vanishes at an exact eigenstate)
	// SRIters and SRResidual report the stochastic-reconfiguration CG
	// solve of the iteration (zero when SR is disabled).
	SRIters    int
	SRResidual float64
}

// Result summarizes a training run.
type Result struct {
	// Energy and Std are evaluated on a fresh batch after training.
	Energy, Std float64
	// BestEnergy is the lowest local energy in the evaluation batch and
	// BestConfig the configuration achieving it — the solver metric for
	// combinatorial problems.
	BestEnergy float64
	BestConfig []int
	// Cut is the evaluated mean cut value for Max-Cut problems (else 0).
	Cut float64
	// BestCut is the cut of the best evaluation sample (Max-Cut only).
	BestCut float64
	// Curve is the per-iteration training record.
	Curve []IterationStat
	// TrainTime is the wall-clock training duration.
	TrainTime time.Duration
	// ForwardPasses counts sampling work in the paper's Figure 1 units.
	ForwardPasses int64
	// Elastic summarizes supervised fault handling; nil unless
	// Options.Elastic was set.
	Elastic *ElasticStats
	// RankTimings holds, per rank, the cumulative wall-clock time of each
	// training phase (sample, energy, grad, sync, precond, update) of the
	// trainer that finished the run. Under Options.Elastic that is the
	// final trainer only: a replacement, shrink or grow builds a new one
	// whose clocks start at zero.
	RankTimings []core.PhaseTimings

	model nn.Wavefunction
}

// ElasticStats summarizes what the elastic supervisor did during a run
// with Options.Elastic set.
type ElasticStats struct {
	// Failures is the number of failed steps handled.
	Failures int
	// Replacements, Retries: successful dead-rank replacements and the
	// extra recovery attempts they took.
	Replacements, Retries int
	// Shrinks and Grows count membership changes.
	Shrinks, Grows int
	// FinalReplicas is the width the run finished at.
	FinalReplicas int
	// FinalCheckpoint is the final checkpoint artifact's path ("" when
	// Options.CheckpointDir was empty).
	FinalCheckpoint string
}

// SaveModel writes the trained wavefunction to path in the library's
// binary checkpoint format; nn.LoadFile reads it back, and cmd/vqmcd serves
// it.
func (r *Result) SaveModel(path string) error {
	if r.model == nil {
		return fmt.Errorf("parvqmc: result carries no model")
	}
	return nn.SaveFile(path, r.model)
}

// srLambda is the SR regularization lambda of (S + lambda I) delta = g.
const srLambda = 1e-3

func (o Options) buildOptimizer() (optimizer.Optimizer, *optimizer.SR) {
	var opt optimizer.Optimizer
	if o.Optimizer == "adam" {
		opt = optimizer.NewAdam(o.LearningRate)
	} else {
		opt = optimizer.NewSGD(o.LearningRate)
	}
	var sr *optimizer.SR
	if o.StochasticReconfig {
		sr = optimizer.NewSR(srLambda)
	}
	return opt, sr
}

// ErrNonFinite is wrapped by the error Train and TrainDistributed return
// when a training iteration's energy mean or variance, or its parameter
// update, is NaN or infinite. The run stops at that iteration, which
// commits no update.
var ErrNonFinite = core.ErrNonFinite

// Train runs VQMC on the problem and returns the result: TrainDistributed
// at one device, with Options.BatchSize (default 1024) as the mini-batch.
func Train(p *Problem, o Options) (*Result, error) {
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	return TrainDistributed(p, o, 1, o.BatchSize)
}

// newSampler constructs the sampler Options.Sampler names over model m:
// "mcmc" for any family; "gibbs" for the RBM (fill rejects it elsewhere);
// "auto" (exact ancestral sampling, incremental) and "auto-naive" (the same
// sampler over MADE's Algorithm-1 evaluator, n forward passes per sample;
// NADE is inherently incremental) for the autoregressive ones.
func (o Options) newSampler(n int, m core.Model, workers int, stream *rng.Rand) (sampler.Sampler, error) {
	mcmc := sampler.MCMCConfig{Chains: o.MCMCChains, BurnIn: o.MCMCBurnIn, Thin: o.MCMCThin}
	switch o.Sampler {
	case "auto", "auto-naive":
	case "mcmc":
		return sampler.NewMCMC(m, mcmc, stream), nil
	case "gibbs":
		return sampler.NewGibbs(m.(*nn.RBM), mcmc, stream), nil
	default:
		return nil, fmt.Errorf("parvqmc: unknown sampler %q", o.Sampler)
	}
	anc, ok := m.(nn.BatchAncestralBuilder)
	if !ok {
		return nil, fmt.Errorf("parvqmc: no ancestral sampler for model %T", m)
	}
	if made, ok := m.(*nn.MADE); ok && o.Sampler == "auto-naive" {
		anc = made.NaiveAncestral()
	}
	return sampler.NewAutoBatched(n, anc, workers, stream), nil
}

// TrainDistributed runs the paper's data-parallel scheme: devices replicas
// (goroutines) each sample miniBatch configurations per iteration, gradients
// are combined with a ring all-reduce, and every replica applies the same
// update. The effective batch is devices*miniBatch. Every model and sampler
// Train accepts is supported; Train is this function at one device.
//
// Every rank's parameters are drawn from the first split of the seed's
// stream and rank k's samples from the (k+2)-th, so a rank's draws depend
// on Seed and its rank only: rank 0 of any run samples what Train samples.
//
// With Options.StochasticReconfig set, the gradient is preconditioned by
// distributed SR: each replica keeps only its private O_k rows and the
// matrix-free Fisher CG solve performs one packed ring all-reduce per
// iteration. Options.Workers additionally shares each replica's sampling,
// local-energy and gradient evaluation out over that many goroutines — the
// two-level replica x worker scheme modeling node x GPU hierarchies. It
// perturbs neither the bit-identity of the replicas nor any result.
//
// With Options.Elastic set, the run is supervised: a replica failure is
// handled by replacement (bit-identical resume, bounded retries with
// backoff), then by shrinking to the survivors as a legal smaller run, with
// re-growth to the original width after a stretch of clean steps, and a
// clean checkpointed abort below the Options.MinReplicas floor. The per-step
// Batch column of the returned curve records the effective global batch the
// membership provided at each iteration.
func TrainDistributed(p *Problem, o Options, devices, miniBatch int) (*Result, error) {
	n := p.Sites()
	if n < 1 {
		return nil, fmt.Errorf("parvqmc: a problem needs at least one site, got %d", n)
	}
	if err := o.fill(n); err != nil {
		return nil, err
	}
	if devices <= 0 || miniBatch <= 0 {
		return nil, fmt.Errorf("parvqmc: devices and miniBatch must be positive")
	}
	workers := o.Workers
	if workers <= 0 {
		workers = max(1, parallel.MaxWorkers()/devices)
	}
	// build is the one replica builder: it makes the starting ranks and the
	// elastic supervisor's replacement and admitted ones. Recover rewinds a
	// replacement to the dead rank's stream position anyway; an admitted
	// (Grow) rank keeps this stream.
	build := func(rank int, model dist.Model) (dist.Replica, error) {
		smp, err := o.newSampler(n, model, workers, rng.New(o.Seed).SplitN(rank + 2)[rank+1])
		if err != nil {
			return dist.Replica{}, err
		}
		opt, sr := o.buildOptimizer()
		return dist.Replica{Model: model, Smp: smp, Opt: opt, SR: sr, Workers: workers}, nil
	}
	reps := make([]dist.Replica, devices)
	for r := range reps {
		model, err := nn.New(o.Model, n, o.Hidden, rng.New(o.Seed).Split())
		if err != nil {
			return nil, err
		}
		if reps[r], err = build(r, model.(dist.Model)); err != nil {
			return nil, err
		}
	}
	tr, err := dist.New(p.ham, reps, miniBatch)
	if err != nil {
		return nil, err
	}

	var hist []core.IterStats
	var estats *ElasticStats
	start := time.Now()
	if o.Elastic {
		sup, err := dist.NewSupervisor(tr, dist.Policy{
			MinReplicas: o.MinReplicas, CheckpointDir: o.CheckpointDir, Builder: build,
		})
		if err != nil {
			return nil, err
		}
		hist, err = sup.Train(o.Iterations, nil)
		tr = sup.Trainer()
		st := sup.Stats()
		if err != nil {
			return nil, fmt.Errorf("parvqmc: supervised training aborted after %d steps (final checkpoint %q): %w",
				len(hist), st.FinalCheckpoint, err)
		}
		estats = &ElasticStats{
			Failures: st.Failures, Replacements: st.Replacements, Retries: st.Retries,
			Shrinks: st.Shrinks, Grows: st.Grows,
			FinalReplicas: tr.Devices(), FinalCheckpoint: st.FinalCheckpoint,
		}
	} else {
		hist, err = tr.Train(o.Iterations, nil)
		if err != nil {
			return nil, fmt.Errorf("parvqmc: training failed: %w", err)
		}
	}
	elapsed := time.Since(start)
	mean, std, best, argBest, err := tr.EvaluateBest(o.EvalBatch)
	if err != nil {
		return nil, fmt.Errorf("parvqmc: evaluation failed: %w", err)
	}
	// Replicas hold identical bytes by the step's contract, so rank 0's model
	// is the trained model; checking it costs one pass over the parameters.
	// Sampling work is summed over whoever finished.
	if err := tr.CheckConsistent(); err != nil {
		return nil, fmt.Errorf("parvqmc: replicas diverged: %w", err)
	}
	res := &Result{Energy: mean, Std: std, BestEnergy: best, BestConfig: argBest,
		TrainTime: elapsed, Elastic: estats, RankTimings: tr.RankTimings(), model: tr.Reps[0].Model}
	for _, rep := range tr.Reps {
		res.ForwardPasses += rep.Smp.Cost().ForwardPasses
	}
	for _, s := range hist {
		res.Curve = append(res.Curve, IterationStat{Iteration: s.Iter, Batch: s.Batch,
			Energy: s.Energy, Std: s.Std, SRIters: s.SRIters, SRResidual: s.SRResidual})
	}
	if cut, ok := p.CutOf(mean); ok {
		res.Cut = cut
		res.BestCut, _ = p.CutOf(best)
	}
	return res, nil
}

// ClassicalResult is the outcome of a classical Max-Cut solver.
type ClassicalResult struct {
	Cut        float64
	Assignment []int
	SDPBound   float64
}

// SolveMaxCutClassical runs one of the paper's baselines on a Max-Cut
// problem at its default configuration: "random", "gw"
// (Goemans-Williamson) or "bm" (Burer-Monteiro with Riemannian trust
// region), in any letter case.
func SolveMaxCutClassical(p *Problem, method string, seed uint64) (*ClassicalResult, error) {
	if p.g == nil {
		return nil, fmt.Errorf("parvqmc: %q is not a Max-Cut problem", p.kind)
	}
	res, err := maxcut.Solve(p.g, strings.ToLower(method), maxcut.Config{}, rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("parvqmc: %w", err)
	}
	return &ClassicalResult{Cut: res.Cut, Assignment: res.Assignment, SDPBound: res.SDPBound}, nil
}

// DefaultHidden returns the latent size Train uses when Options.Hidden is
// unset: the paper's rule 5(ln n)^2 for MADE (and NADE, same parameter
// count) and n for the RBM.
func DefaultHidden(model string, n int) int {
	return nn.DefaultHidden(model, n)
}
