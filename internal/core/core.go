// Package core implements the paper's primary contribution: the VQMC
// optimization loop. Each iteration samples a batch from the trial state,
// evaluates local energies l(x) = (H psi)(x)/psi(x) through the sparse row
// structure (Eq. 3), forms the covariance-style gradient estimator (Eq. 5),
// optionally preconditions it with stochastic reconfiguration, and applies
// an optimizer step. The loop also tracks the standard deviation of the
// stochastic objective, which vanishes at an exact eigenstate (Eq. 4) and is
// the blue curve of the paper's Figure 2.
package core

import (
	"math"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// Model is the wavefunction contract the trainer needs: amplitudes,
// gradients and flip ratios.
type Model interface {
	nn.Wavefunction
	nn.CacheBuilder
}

// LocalEnergies fills out[k] with the local energy of batch row k:
// l(x) = H_xx + sum_b H[x,x^b] * psi(x^b)/psi(x). Workers each own a
// FlipCache so TIM's n flip ratios cost O(h) each for the RBM and one
// forward pass each for MADE. For diagonal Hamiltonians (Max-Cut) no
// wavefunction evaluation happens at all.
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
				l += ft.Amp * math.Exp(cache.Delta(ft.Bit))
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
	// Eval selects the evaluation path: EvalAuto (default) fuses local
	// energies and gradients into blocked GEMMs over the batch dimension
	// when the model supports it; EvalScalar forces the per-sample path.
	// The choice never changes a produced bit.
	Eval EvalMode
}

// Trainer runs the VQMC loop for one (Hamiltonian, model, sampler,
// optimizer) quadruple.
type Trainer struct {
	H     hamiltonian.Hamiltonian
	Model Model
	Smp   sampler.Sampler
	Opt   optimizer.Optimizer

	cfg     Config
	batch   *sampler.Batch
	locals  []float64
	grad    tensor.Vector
	ows     *tensor.Batch // per-sample O_k, allocated only under SR
	evals   []nn.GradEvaluator
	iter    int
	timings Timings
	// Batched evaluation state: bev is non-nil when the model provides a
	// batched path and Config.Eval allows it; wbuf holds the per-sample
	// gradient coefficients, gparts the fixed-block reduction partials,
	// and slabOws the gradient slab for the batched streaming path.
	bev     *BatchedEval
	wbuf    []float64
	gparts  *tensor.Batch
	slabOws *tensor.Batch
	// Evaluation workspace, cached across EvaluateBest calls so TrainUntil
	// (which evaluates after every iteration) allocates nothing per step.
	evalBatch  *sampler.Batch
	evalLocals []float64
}

// New assembles a trainer. BatchSize defaults to 1024.
func New(h hamiltonian.Hamiltonian, model Model, smp sampler.Sampler, opt optimizer.Optimizer, cfg Config) *Trainer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.MaxWorkers()
	}
	t := &Trainer{H: h, Model: model, Smp: smp, Opt: opt, cfg: cfg}
	t.batch = sampler.NewBatch(cfg.BatchSize, h.N())
	t.locals = make([]float64, cfg.BatchSize)
	t.grad = tensor.NewVector(model.NumParams())
	if cfg.SR != nil {
		t.ows = tensor.NewBatch(cfg.BatchSize, model.NumParams())
	}
	t.evals = make([]nn.GradEvaluator, cfg.Workers)
	for i := range t.evals {
		t.evals[i] = newGradEvaluator(model)
	}
	t.bev = NewBatchedEval(model, cfg.Eval, cfg.Workers)
	t.wbuf = make([]float64, cfg.BatchSize)
	t.gparts = tensor.NewBatch(GradBlocks(cfg.BatchSize), model.NumParams())
	return t
}

func newGradEvaluator(m Model) nn.GradEvaluator {
	if b, ok := m.(nn.GradEvaluatorBuilder); ok {
		return b.NewGradEvaluator()
	}
	return fallbackEvaluator{m}
}

type fallbackEvaluator struct{ m Model }

func (f fallbackEvaluator) GradLogPsi(x []int, g tensor.Vector) { f.m.GradLogPsi(x, g) }
func (f fallbackEvaluator) LogPsi(x []int) float64              { return f.m.LogPsi(x) }

// PrewarmCaches forwards to the wrapped model so FillOws's coordinator-side
// pre-warm reaches models with lazy parameter-derived caches.
func (f fallbackEvaluator) PrewarmCaches() { nn.Prewarm(f.m) }

// Config returns the effective configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Timings returns cumulative per-phase wall-clock times.
func (t *Trainer) Timings() Timings { return t.timings }

// Step runs one VQMC iteration and returns its statistics.
func (t *Trainer) Step() IterStats {
	t.iter++
	// Rebuild any stale parameter-derived caches once, on this goroutine,
	// before the sampler or the evaluation paths fan work out to workers.
	nn.Prewarm(t.Model)
	t0 := time.Now()
	t.Smp.Sample(t.batch)
	t1 := time.Now()
	t.timings.Sample += t1.Sub(t0)

	if t.bev != nil {
		t.bev.LocalEnergies(t.H, t.batch, t.cfg.Workers, t.locals)
	} else {
		LocalEnergies(t.H, t.Model, t.batch, t.cfg.Workers, t.locals)
	}
	mean, std := stats.MeanStd(t.locals)
	t2 := time.Now()
	t.timings.Energy += t2.Sub(t1)

	t.computeGradient(mean)
	t3 := time.Now()
	t.timings.Grad += t3.Sub(t2)

	step := t.grad
	stats := IterStats{Iter: t.iter, Batch: t.cfg.BatchSize, Energy: mean, Std: std}
	if t.cfg.SR != nil {
		step = t.cfg.SR.Precondition(t.ows, t.grad)
		solve := t.cfg.SR.LastSolve()
		stats.SRIters, stats.SRResidual = solve.Iterations, solve.Residual
	}
	t.Opt.Step(t.Model.Params(), step)
	// The in-place parameter update invalidates any parameter-derived
	// cache (MADE's masked-weight product for the batched GEMM path).
	nn.InvalidateParams(t.Model)
	t.timings.Update += time.Since(t3)

	return stats
}

// FillOws evaluates GradLogPsi of every batch row into the corresponding
// ows row, partitioning rows across the per-worker evaluators (evals must
// hold at least as many evaluators as worker ranges). Rows are independent,
// so the result is bitwise identical for every worker count — the property
// the distributed trainer's two-level replica x worker scheme relies on.
func FillOws(evals []nn.GradEvaluator, b *sampler.Batch, ows *tensor.Batch, workers int) {
	// Pre-warm through the first evaluator in case the per-worker
	// evaluators share one underlying model with lazy caches (the fallback
	// evaluator wraps the model directly; dedicated GradEvaluators own
	// their scratch but may still read shared parameter-derived caches).
	if len(evals) > 0 {
		nn.Prewarm(evals[0])
	}
	ranges := parallel.Partition(b.N, workers)
	parallel.ForEach(len(ranges), workers, func(w int) {
		ev := evals[w]
		for k := ranges[w].Lo; k < ranges[w].Hi; k++ {
			ev.GradLogPsi(b.Row(k), ows.Sample(k))
		}
	})
}

// GradSlabRows is the sample-slab size of the batched streaming gradient
// path (no materialized full O_k batch): a multiple of GradBlockSize, so
// slab boundaries coincide with reduction-block boundaries and the slabbed
// reduction is bitwise identical to one AddWeightedRows over the full
// batch. Shared with the distributed trainer's REINFORCE path.
const GradSlabRows = 128

// computeGradient forms g = (2/B) sum_k (l_k - mean) O_k through the
// fixed-block reduction of AddWeightedRows, so the result is bitwise
// invariant to the worker count on every path. Under SR the per-sample O_k
// rows are also stored for the Fisher solve; otherwise the rows are
// produced slab by slab (batched) or block by block (scalar) and never
// fully materialized.
func (t *Trainer) computeGradient(mean float64) {
	bs := t.batch.N
	d := t.Model.NumParams()
	for k := 0; k < bs; k++ {
		t.wbuf[k] = 2 * (t.locals[k] - mean) / float64(bs)
	}
	for i := range t.grad {
		t.grad[i] = 0
	}
	if t.ows != nil {
		if t.bev != nil {
			t.bev.FillOws(t.batch, t.ows)
		} else {
			FillOws(t.evals, t.batch, t.ows, t.cfg.Workers)
		}
		AddWeightedRows(t.grad, t.ows, t.wbuf, t.gparts, t.cfg.Workers)
		return
	}
	if t.bev != nil {
		// Batched streaming: evaluate O_k rows one GradSlabRows slab at a time
		// through the fused GEMM forward, reducing each slab with the same
		// fixed blocks the one-shot reduction uses.
		if t.slabOws == nil {
			t.slabOws = tensor.NewBatch(GradSlabRows, d)
		}
		for lo := 0; lo < bs; lo += GradSlabRows {
			hi := lo + GradSlabRows
			if hi > bs {
				hi = bs
			}
			slab := &sampler.Batch{N: hi - lo, Sites: t.batch.Sites,
				Bits: t.batch.Bits[lo*t.batch.Sites : hi*t.batch.Sites]}
			rows := &tensor.Batch{N: hi - lo, Dim: d, Data: t.slabOws.Data[:(hi-lo)*d]}
			t.bev.FillOws(slab, rows)
			AddWeightedRows(t.grad, rows, t.wbuf[lo:hi], t.gparts, t.cfg.Workers)
		}
		return
	}
	// Scalar streaming: each worker owns a contiguous range of fixed
	// blocks, computing the per-block partials that are then folded in
	// ascending block order — the same bytes AddWeightedRows produces from
	// materialized rows.
	nb := GradBlocks(bs)
	branges := parallel.Partition(nb, t.cfg.Workers)
	parallel.ForEach(len(branges), t.cfg.Workers, func(w int) {
		ev := t.evals[w]
		gbuf := tensor.NewVector(d)
		for bi := branges[w].Lo; bi < branges[w].Hi; bi++ {
			p := t.gparts.Sample(bi)
			p.Fill(0)
			k1 := (bi + 1) * GradBlockSize
			if k1 > bs {
				k1 = bs
			}
			for k := bi * GradBlockSize; k < k1; k++ {
				ev.GradLogPsi(t.batch.Row(k), gbuf)
				p.AXPY(t.wbuf[k], gbuf)
			}
		}
	})
	foldParts(t.grad, t.gparts, nb)
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
	if t.evalBatch == nil || t.evalBatch.N != batchSize {
		t.evalBatch = sampler.NewBatch(batchSize, t.H.N())
		t.evalLocals = make([]float64, batchSize)
	}
	b, locals := t.evalBatch, t.evalLocals
	t.Smp.Sample(b)
	if t.bev != nil {
		t.bev.LocalEnergies(t.H, b, t.cfg.Workers, locals)
	} else {
		LocalEnergies(t.H, t.Model, b, t.cfg.Workers, locals)
	}
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

// HitResult reports a hitting-time run (the paper's Table 5 protocol).
type HitResult struct {
	Hit       bool
	Iters     int
	TrainTime time.Duration // training time only; evaluation excluded
	Score     float64       // final evaluation score
}

// TrainUntil trains until score(evalEnergy) >= target, evaluating a fresh
// batch after every iteration. Evaluation time is excluded from TrainTime,
// matching the paper's measurement protocol.
func (t *Trainer) TrainUntil(target float64, score func(meanEnergy float64) float64, maxIters, evalBatch int) HitResult {
	var trainTime time.Duration
	for i := 0; i < maxIters; i++ {
		start := time.Now()
		t.Step()
		trainTime += time.Since(start)
		mean, _ := t.Evaluate(evalBatch)
		if s := score(mean); s >= target {
			return HitResult{Hit: true, Iters: i + 1, TrainTime: trainTime, Score: s}
		}
	}
	mean, _ := t.Evaluate(evalBatch)
	return HitResult{Hit: false, Iters: maxIters, TrainTime: trainTime, Score: score(mean)}
}

// GradientNorm returns the Euclidean norm of the last computed gradient.
func (t *Trainer) GradientNorm() float64 { return t.grad.Norm2() }
