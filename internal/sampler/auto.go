package sampler

import (
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// EvaluatorFactory produces per-worker conditional evaluators. It is
// satisfied by (*nn.MADE).NewNaiveEvaluator (the paper's Algorithm 1) and
// (*nn.MADE).NewIncrementalEvaluator (the O(h)-per-bit fast path).
type EvaluatorFactory func() nn.ConditionalEvaluator

// Auto samples exactly from an autoregressive model by ancestral sampling:
// bit i is drawn from P(x_i | x_<i). Samples are independent, so the batch
// is trivially parallel across workers — the property that removes the
// burn-in bottleneck of MCMC (Section 4 of the paper).
type Auto struct {
	sites   int
	factory EvaluatorFactory
	workers int
	rngs    []*rng.Rand
	evals   []nn.ConditionalEvaluator
	// Batched ancestral mode: when bsmp is non-nil, Sample pre-draws the
	// whole batch's uniforms (in the same per-worker order the scalar loop
	// consumes them) and hands them to the model's batched sampler. Bits
	// are bitwise identical to the scalar incremental mode at the same
	// worker count.
	bsmp nn.BatchAncestralSampler
	ubuf []float64
	cost Cost
}

// NewAuto builds an exact sampler over a model with the given number of
// sites. workers <= 0 means GOMAXPROCS. Each worker owns an independent RNG
// stream split from r, so results are deterministic for a fixed worker
// count.
func NewAuto(sites int, factory EvaluatorFactory, workers int, r *rng.Rand) *Auto {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	a := &Auto{sites: sites, factory: factory, workers: workers}
	a.rngs = r.SplitN(workers)
	a.evals = make([]nn.ConditionalEvaluator, workers)
	for i := range a.evals {
		a.evals[i] = factory()
	}
	return a
}

// NewAutoMADE is a convenience constructor choosing the evaluator by mode:
// incremental=false reproduces Algorithm 1 exactly (n forward passes per
// sample).
func NewAutoMADE(m *nn.MADE, incremental bool, workers int, r *rng.Rand) *Auto {
	f := EvaluatorFactory(m.NewNaiveEvaluator)
	if incremental {
		f = m.NewIncrementalEvaluator
	}
	return NewAuto(m.NumSites(), f, workers, r)
}

// NewAutoBatched builds the batched ancestral sampler: the whole batch's
// uniforms are drawn up front and the model's nn.BatchAncestralSampler
// turns them into bits (for every autoregressive family the incremental
// evaluator walked row by row, rows partitioned over workers). The RNG
// streams, their per-worker slab assignment and the drawn bits are bitwise
// identical to the scalar incremental sampler built with the same workers
// and r — the batched mode changes when uniforms are drawn, never a sampled
// bit.
func NewAutoBatched(sites int, builder nn.BatchAncestralBuilder, workers int, r *rng.Rand) *Auto {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	a := &Auto{sites: sites, workers: workers, bsmp: builder.NewBatchAncestralSampler()}
	a.rngs = r.SplitN(workers)
	return a
}

// Sample implements Sampler. Worker w handles a contiguous slab of the
// batch; the assignment depends only on (batch size, worker count), keeping
// runs reproducible.
func (a *Auto) Sample(b *Batch) {
	if b.Sites != a.sites {
		panic("sampler: batch sites mismatch")
	}
	if a.bsmp != nil {
		a.sampleBatched(b)
		return
	}
	ranges := parallel.Partition(b.N, a.workers)
	var before int64
	for _, e := range a.evals {
		before += e.ForwardPasses()
	}
	parallel.ForEach(len(ranges), a.workers, func(w int) {
		ev := a.evals[w]
		rnd := a.rngs[w]
		for s := ranges[w].Lo; s < ranges[w].Hi; s++ {
			row := b.Row(s)
			ev.Reset()
			for i := 0; i < a.sites; i++ {
				p := ev.Prob(i)
				bit := 0
				if rnd.Float64() < p {
					bit = 1
				}
				row[i] = bit
				ev.Fix(i, bit)
			}
		}
	})
	var after int64
	for _, e := range a.evals {
		after += e.ForwardPasses()
	}
	a.cost.addPasses(after - before)
	a.cost.addSteps(int64(b.N) * int64(a.sites))
}

// sampleBatched pre-draws every uniform the scalar loop would consume —
// worker w drawing for its slab in (sample, site) order from its own
// stream, exactly the scalar consumption order — then lets the model's
// batched sampler turn them into bits.
func (a *Auto) sampleBatched(b *Batch) {
	if need := b.N * a.sites; cap(a.ubuf) < need {
		a.ubuf = make([]float64, need)
	}
	u := a.ubuf[:b.N*a.sites]
	ranges := parallel.Partition(b.N, a.workers)
	parallel.ForEach(len(ranges), a.workers, func(w int) {
		rnd := a.rngs[w]
		for s := ranges[w].Lo * a.sites; s < ranges[w].Hi*a.sites; s++ {
			u[s] = rnd.Float64()
		}
	})
	a.bsmp.Sample(nn.ConfigBatch{N: b.N, Sites: b.Sites, Bits: b.Bits}, u, a.workers)
	// One full-network forward equivalent per completed sample, matching
	// the incremental evaluator's accounting.
	a.cost.addPasses(int64(b.N))
	a.cost.addSteps(int64(b.N) * int64(a.sites))
}

// Cost implements Sampler.
func (a *Auto) Cost() Cost { return a.cost }

var _ Sampler = (*Auto)(nil)
