// Package nn implements three neural wavefunction families: the two the
// paper compares — the masked autoencoder MADE (autoregressive, normalized,
// exactly sampleable) and the restricted Boltzmann machine RBM
// (unnormalized, requires MCMC) — and NADE (autoregressive, the
// architecture MADE improves on) — the three rows of one family table
// (family.go) that New builds from.
// Gradients are analytic closed forms of the 1-2 layer architectures,
// standing in for the autograd engine of the paper's PyTorch implementation;
// tests validate them against finite differences.
//
// Configurations are bit strings x in {0,1}^n. Every model stores its
// parameters in one flat backing vector so optimizers can update in place;
// layer views (weight matrices, bias vectors) alias that storage.
package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// Wavefunction is a parametric trial state psi_theta over {0,1}^n.
// LogPsi returns log|psi(x)|; for normalized models exp(2 LogPsi) is a
// probability distribution.
type Wavefunction interface {
	// NumSites returns n, the input dimension.
	NumSites() int
	// NumParams returns d, the length of the flattened parameter vector.
	NumParams() int
	// Params returns the flat parameter vector aliasing model storage;
	// mutating it mutates the model.
	Params() tensor.Vector
	// LogPsi evaluates log |psi_theta(x)|.
	LogPsi(x []int) float64
	// GradLogPsi accumulates d log|psi|/d theta into grad (grad is
	// overwritten, length NumParams). Implementations must be safe for
	// concurrent calls on distinct grad buffers.
	GradLogPsi(x []int, grad tensor.Vector)
}

// Normalized is implemented by wavefunctions with a tractable normalized
// distribution pi(x) = psi(x)^2.
type Normalized interface {
	Wavefunction
	// LogProb returns log pi(x) = 2 log |psi(x)| with sum_x pi(x) = 1.
	LogProb(x []int) float64
}

// FlipCache evaluates log-psi differences under single-bit flips of a fixed
// base configuration; it is the kernel of both Metropolis-Hastings and
// local-energy evaluation. Implementations are not safe for concurrent use.
type FlipCache interface {
	// LogPsi returns log |psi| of the current configuration.
	LogPsi() float64
	// Delta returns log|psi(x^b)| - log|psi(x)| without changing state.
	Delta(bit int) float64
	// Flip commits bit b, updating internal caches.
	Flip(bit int)
	// State returns the current configuration (aliases internal storage).
	State() []int
	// Reset rebases the cache on a new configuration, reusing buffers.
	Reset(x []int)
}

// CacheBuilder is implemented by wavefunctions that provide a FlipCache.
type CacheBuilder interface {
	NewFlipCache(x []int) FlipCache
}

// tailFlipCache is implemented by flip caches whose Delta is derived from
// an absolute flipped log-psi that is bitwise identical to a fresh LogPsi
// of the flipped configuration (MADE's tail-only cache: the autoregressive
// mask leaves conditionals j < b untouched under a flip of bit b, so only
// output sites j >= b are re-evaluated and the log-probability fold resumes
// from a cached prefix sum). Delta(b) == FlipLogPsi(b) - LogPsi() exactly,
// by construction.
type tailFlipCache interface {
	FlipCache
	// FlipLogPsi returns log |psi| of the current configuration with bit
	// flipped, without changing state — bitwise equal to a fresh LogPsi.
	FlipLogPsi(bit int) float64
}

// GradEvaluator computes log-psi gradients with per-worker buffers.
type GradEvaluator interface {
	GradLogPsi(x []int, grad tensor.Vector)
	LogPsi(x []int) float64
}

// GradEvaluatorBuilder is implemented by wavefunctions that provide
// buffer-reusing gradient evaluators for parallel workers.
type GradEvaluatorBuilder interface {
	NewGradEvaluator() GradEvaluator
}

// scratchKernels is a family's scalar log-psi and gradient kernels over
// caller-owned scratch S.
type scratchKernels[S any] interface {
	logPsiScratch(x []int, s S) float64
	gradLogPsiScratch(x []int, grad tensor.Vector, s S)
}

// scratchGrad is every family's GradEvaluator: its kernels on one private
// scratch.
type scratchGrad[S any] struct {
	m scratchKernels[S]
	s S
}

func (e scratchGrad[S]) GradLogPsi(x []int, grad tensor.Vector) { e.m.gradLogPsiScratch(x, grad, e.s) }

func (e scratchGrad[S]) LogPsi(x []int) float64 { return e.m.logPsiScratch(x, e.s) }

// softplus computes ln(1+e^z) stably.
func softplus(z float64) float64 {
	if z > 35 {
		return z
	}
	if z < -35 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}

// logSigmoid computes ln sigma(z) = -softplus(-z) stably.
func logSigmoid(z float64) float64 { return -softplus(-z) }

// condTerm is one site's contribution to an autoregressive log-probability
// fold: ln sigma(z) when the bit is 1, ln sigma(-z) when it is 0. The scalar
// folds, the flip caches' prefix/tail resumes, and the batched paths all add
// terms through this one function so every path folds bitwise-identical
// values. Written as one negation before one logSigmoid it fits the
// compiler's inlining budget, so the folds pay no call for it.
func condTerm(z float64, bit int) float64 {
	if bit != 1 {
		z = -z
	}
	return logSigmoid(z)
}

// lnCosh computes ln cosh(z) stably for large |z|.
func lnCosh(z float64) float64 {
	a := math.Abs(z)
	return a + softplus(-2*a) - math.Ln2
}

// uniformInit fills w with U(-1/sqrt(fanIn), 1/sqrt(fanIn)) entries, the
// conventional dense-layer initialization.
func uniformInit(w []float64, fanIn int, rnd interface{ Uniform(lo, hi float64) float64 }) {
	bound := 1.0
	if fanIn > 0 {
		bound = 1 / math.Sqrt(float64(fanIn))
	}
	for i := range w {
		w[i] = rnd.Uniform(-bound, bound)
	}
}
