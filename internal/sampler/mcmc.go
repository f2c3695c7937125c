package sampler

import (
	"math"
	"sync"
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
type MCMC struct {
	model interface {
		nn.Wavefunction
		nn.CacheBuilder
	}
	cfg    MCMCConfig
	rngs   []*rng.Rand
	states [][]int // persistent chain states
	cost   Cost
	// acceptance tracking
	accepted int64
	proposed int64
}

// NewMCMC builds an MCMC sampler. Zero-valued config fields get the paper's
// defaults.
func NewMCMC(model interface {
	nn.Wavefunction
	nn.CacheBuilder
}, cfg MCMCConfig, r *rng.Rand) *MCMC {
	if cfg.Chains <= 0 {
		cfg.Chains = 2
	}
	if cfg.BurnIn < 0 {
		cfg.BurnIn = 0
	} else if cfg.BurnIn == 0 {
		cfg.BurnIn = DefaultBurnIn(model.NumSites())
	}
	if cfg.Thin <= 0 {
		cfg.Thin = 1
	}
	m := &MCMC{model: model, cfg: cfg}
	m.rngs = r.SplitN(cfg.Chains)
	m.states = make([][]int, cfg.Chains)
	for c := range m.states {
		st := make([]int, model.NumSites())
		m.rngs[c].FillBits(st)
		m.states[c] = st
	}
	return m
}

// Config returns the effective configuration after defaulting.
func (m *MCMC) Config() MCMCConfig { return m.cfg }

// Sample implements Sampler: each chain burns in, then records every
// Thin-th state until its share of the batch is filled. Chains run
// concurrently; the batch is split into contiguous chain slabs so output is
// deterministic given the seed and chain count.
func (m *MCMC) Sample(b *Batch) {
	n := m.model.NumSites()
	if b.Sites != n {
		panic("sampler: batch sites mismatch")
	}
	chains := m.cfg.Chains
	var wg sync.WaitGroup
	wg.Add(chains)
	for c := 0; c < chains; c++ {
		go func(c int) {
			defer wg.Done()
			lo := c * b.N / chains
			hi := (c + 1) * b.N / chains
			rnd := m.rngs[c]
			if !m.cfg.Persistent {
				rnd.FillBits(m.states[c])
			}
			cache := m.model.NewFlipCache(m.states[c])
			var steps, acc, prop int64
			step := func() {
				bit := rnd.Intn(n)
				d := cache.Delta(bit)
				prop++
				// Accept with min(1, pi(y)/pi(x)) = min(1, exp(2*d)).
				if d >= 0 || rnd.Float64() < exp2d(d) {
					cache.Flip(bit)
					acc++
				}
				steps++
			}
			for i := 0; i < m.cfg.BurnIn; i++ {
				step()
			}
			for s := lo; s < hi; s++ {
				for t := 0; t < m.cfg.Thin; t++ {
					step()
				}
				copy(b.Row(s), cache.State())
			}
			copy(m.states[c], cache.State())
			m.cost.addSteps(steps)
			// Each MH step needs one amplitude evaluation; count it as a
			// forward pass for cost parity with AUTO (Figure 1).
			m.cost.addPasses(steps)
			atomic.AddInt64(&m.accepted, acc)
			atomic.AddInt64(&m.proposed, prop)
		}(c)
	}
	wg.Wait()
}

// exp2d converts a log-psi difference to the pi ratio exp(2d) used in the
// acceptance test.
func exp2d(d float64) float64 { return math.Exp(2 * d) }

// Cost implements Sampler.
func (m *MCMC) Cost() Cost { return m.cost }

// AcceptanceRate returns the fraction of proposals accepted so far.
func (m *MCMC) AcceptanceRate() float64 {
	p := atomic.LoadInt64(&m.proposed)
	if p == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&m.accepted)) / float64(p)
}

var _ Sampler = (*MCMC)(nil)
