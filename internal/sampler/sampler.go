// Package sampler implements the two sampling strategies the paper
// contrasts: exact autoregressive sampling (AUTO, Algorithm 1) and
// random-walk Metropolis-Hastings MCMC with burn-in and thinning. Both fill
// batches of configurations drawn (exactly or asymptotically) from
// pi_theta(x) = psi_theta(x)^2 / <psi,psi>.
package sampler

import (
	"sync/atomic"

	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// Batch is a batch of n-bit configurations stored flat for cache locality:
// the one configuration-batch type, shared with the evaluators.
type Batch = nn.ConfigBatch

// NewBatch allocates a zeroed batch.
func NewBatch(n, sites int) *Batch {
	return &Batch{N: n, Sites: sites, Bits: make([]int, n*sites)}
}

// Cost accumulates sampling work in the paper's units: full-network forward
// passes and raw Markov-chain steps. Counters are cumulative across Sample
// calls and safe to read concurrently.
type Cost struct {
	ForwardPasses int64
	Steps         int64
}

func (c *Cost) addPasses(n int64) { atomic.AddInt64(&c.ForwardPasses, n) }
func (c *Cost) addSteps(n int64)  { atomic.AddInt64(&c.Steps, n) }

// Sampler draws batches of configurations from the model distribution.
type Sampler interface {
	// Sample fills b with samples; b.Sites must equal the model size.
	Sample(b *Batch)
	// Cost returns cumulative cost counters.
	Cost() Cost
}
