package sampler

import (
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Auto samples exactly from an autoregressive model by ancestral sampling:
// bit i is drawn from P(x_i | x_<i). Samples are independent, so the batch
// is trivially parallel across workers — the property that removes the
// burn-in bottleneck of MCMC (Section 4 of the paper).
type Auto struct {
	sites   int
	workers int
	rnd     *rng.Rand
	smp     nn.BatchAncestralSampler
	ubuf    []float64
	cost    Cost
}

// NewAutoBatched builds the ancestral sampler over builder's model: Sample
// draws the whole batch's uniforms from one stream, r.Split(), in (sample,
// site) order, and the model's nn.BatchAncestralSampler turns them into bits,
// the rows shared over workers (<= 0 means GOMAXPROCS). Row k is a function
// of the parameters and its own n uniforms alone (the
// nn.BatchAncestralSampler contract), so the bits do not depend on workers:
// it only sets the fan-out.
func NewAutoBatched(sites int, builder nn.BatchAncestralBuilder, workers int, r *rng.Rand) *Auto {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	return &Auto{sites: sites, workers: workers, rnd: r.Split(), smp: builder.NewBatchAncestralSampler()}
}

// Sample implements Sampler.
func (a *Auto) Sample(b *Batch) {
	if b.Sites != a.sites {
		panic("sampler: batch sites mismatch")
	}
	if need := b.N * a.sites; cap(a.ubuf) < need {
		a.ubuf = make([]float64, need)
	}
	u := a.ubuf[:b.N*a.sites]
	for i := range u {
		u[i] = a.rnd.Float64()
	}
	before := a.smp.ForwardPasses()
	a.smp.Sample(*b, u, a.workers)
	a.cost.addPasses(a.smp.ForwardPasses() - before)
	a.cost.addSteps(int64(b.N) * int64(a.sites))
}

// Cost implements Sampler.
func (a *Auto) Cost() Cost { return a.cost }

var _ Sampler = (*Auto)(nil)
