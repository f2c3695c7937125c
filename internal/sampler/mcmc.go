package sampler

import (
	"math"
	"sync/atomic"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// MCMCConfig selects the Metropolis-Hastings sampling scheme. The defaults
// reproduce the paper's setting: 2 chains, burn-in k = 3n+100, no thinning
// (Scheme 1). Setting Thin > 1 with BurnIn = 0 gives Scheme 2 of the
// ablation in Section 6.2.
type MCMCConfig struct {
	Chains int // parallel independent chains (default 2)
	BurnIn int // steps discarded per chain per Sample call (default 3n+100)
	Thin   int // keep every Thin-th step (default 1)
	// Persistent keeps chain states across Sample calls instead of
	// reinitializing at random; burn-in is still applied each call because
	// the target distribution moves between parameter updates.
	Persistent bool
}

// DefaultBurnIn is the paper's heuristic k = 3n + 100.
func DefaultBurnIn(n int) int { return 3*n + 100 }

// MCMC is random-walk Metropolis-Hastings with single-bit-flip proposals
// targeting pi(x) proportional to psi(x)^2. It works with any wavefunction
// exposing a FlipCache; with the RBM's O(h) cache each step costs O(h).
//
// Chains are inherently sequential, so sampling itself walks the scalar
// FlipCache; the energy and gradient phases that consume the sampled batch
// run through the model's nn.BatchEvaluator (the RBM's theta-GEMM path),
// bitwise what the scalar kernels give — see core.BatchedEval.
type MCMC struct{ *markov }

// NewMCMC builds an MCMC sampler. Zero-valued config fields get the paper's
// defaults.
func NewMCMC(model interface {
	nn.Wavefunction
	nn.CacheBuilder
}, cfg MCMCConfig, r *rng.Rand) *MCMC {
	n := model.NumSites()
	return &MCMC{newMarkov(n, metropolis(n, model), cfg, DefaultBurnIn(n), r)}
}

// metropolis is the single-bit-flip Metropolis-Hastings kernel over n sites:
// propose a uniform bit, accept with min(1, pi(y)/pi(x)) = min(1, exp(2d))
// for d = log psi(y) - log psi(x). The walk lives in the model's FlipCache.
func metropolis(n int, model nn.CacheBuilder) kernel {
	return func(x []int, rnd *rng.Rand) (func() bool, func() []int) {
		cache := model.NewFlipCache(x)
		return func() bool {
			bit := rnd.Intn(n)
			d := cache.Delta(bit)
			if d >= 0 || rnd.Float64() < math.Exp(2*d) {
				cache.Flip(bit)
				return true
			}
			return false
		}, cache.State
	}
}

// AcceptanceRate returns the fraction of proposals accepted so far; every
// step is one proposal.
func (m *MCMC) AcceptanceRate() float64 {
	p := atomic.LoadInt64(&m.cost.Steps)
	if p == 0 {
		return 0
	}
	return float64(m.accepted.Load()) / float64(p)
}

var _ Sampler = (*MCMC)(nil)
