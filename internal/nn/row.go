package nn

import (
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// forRows splits [0, n) into contiguous shares over up to workers executors
// and runs body(w, lo, hi) on share w — parallel.Partition's ranges, with
// the share index handed to the body so it can pick its private evaluator.
func forRows(n, workers int, body func(w, lo, hi int)) {
	parts := min(workers, n)
	parallel.ForEach(parts, parts, func(w int) {
		body(w, w*n/parts, (w+1)*n/parts)
	})
}

// gradRows fills ows row k with grad log|psi(row k)| through the scalar
// backward, worker w running evs[w] over its share of the rows. It is the
// GradLogPsiBatch of every family whose backward is inherently per-row (the
// RNN's BPTT and NADE's accumulation chain record per-sample states, so
// there is no cross-row GEMM to fuse without changing the arithmetic).
func gradRows(m Wavefunction, evs []GradEvaluator, b ConfigBatch, ows *tensor.Batch) {
	checkGradLogPsiBatch(m.NumSites(), m.NumParams(), b, ows)
	forRows(b.N, len(evs), func(w, lo, hi int) {
		ev := evs[w]
		for r := lo; r < hi; r++ {
			ev.GradLogPsi(b.Row(r), ows.Sample(r))
		}
	})
}

// newGradEvaluators builds one scalar gradient evaluator per worker.
func newGradEvaluators(m GradEvaluatorBuilder, workers int) []GradEvaluator {
	evs := make([]GradEvaluator, workers)
	for w := range evs {
		evs[w] = m.NewGradEvaluator()
	}
	return evs
}

// rowModel is what rowEvaluator needs of a family: its scalar kernels.
type rowModel interface {
	Wavefunction
	CacheBuilder
	GradEvaluatorBuilder
}

// rowEvaluator is the BatchEvaluator that runs a model's own scalar kernels
// one row at a time: FlipCache.Reset/LogPsi/Delta for the flip super-batch,
// GradEvaluator.LogPsi/GradLogPsi for amplitudes and gradients. It IS the
// scalar path, so the bitwise guarantee holds by construction and it keeps
// no parameter-derived state. For an autoregressive family the FlipCache
// reuses every prefix of the base row across that row's flips, which a
// site-major slab kernel can only imitate with snapshot traffic; where the
// committed record shows the slab kernel losing, this is the batched path.
type rowEvaluator struct {
	m      rowModel
	caches []FlipCache
	grads  []GradEvaluator
}

// newRowEvaluator builds the adaptor with one FlipCache and one
// GradEvaluator per worker (<= 0 means GOMAXPROCS); a call allocates nothing
// but the closures of its one parallel dispatch.
func newRowEvaluator(m rowModel, workers int) *rowEvaluator {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	e := &rowEvaluator{m: m, caches: make([]FlipCache, workers), grads: newGradEvaluators(m, workers)}
	zero := make([]int, m.NumSites())
	for w := range e.caches {
		e.caches[w] = m.NewFlipCache(zero)
	}
	return e
}

// LogPsiBatch implements BatchEvaluator.
func (e *rowEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	checkLogPsiBatch(e.m.NumSites(), b, out)
	forRows(b.N, len(e.grads), func(w, lo, hi int) {
		ev := e.grads[w]
		for r := lo; r < hi; r++ {
			out[r] = ev.LogPsi(b.Row(r))
		}
	})
}

// GradLogPsiBatch implements BatchEvaluator.
func (e *rowEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	gradRows(e.m, e.grads, b, ows)
}

// FlipLogPsiBatch implements BatchEvaluator: each row rebases its worker's
// FlipCache once and reads the base and every delta off it.
func (e *rowEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	checkFlipLogPsiBatch(e.m.NumSites(), b, flips, base, delta)
	nf := len(flips)
	forRows(b.N, len(e.caches), func(w, lo, hi int) {
		c := e.caches[w]
		for r := lo; r < hi; r++ {
			c.Reset(b.Row(r))
			if base != nil {
				base[r] = c.LogPsi()
			}
			for f, bit := range flips {
				delta[r*nf+f] = c.Delta(bit)
			}
		}
	})
}

// rowAncestral is the BatchAncestralSampler that walks each row through a
// per-worker ConditionalEvaluator — scalar ancestral sampling over the
// pre-drawn uniforms. Evaluators are built on first use of a worker slot
// and kept.
type rowAncestral struct {
	sites   int
	newEval func() ConditionalEvaluator
	evals   []ConditionalEvaluator
}

// Sample implements BatchAncestralSampler.
func (a *rowAncestral) Sample(b ConfigBatch, u []float64, workers int) {
	n := a.sites
	checkAncestral(n, b, u)
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	for len(a.evals) < workers {
		a.evals = append(a.evals, a.newEval())
	}
	forRows(b.N, workers, func(w, lo, hi int) {
		ev := a.evals[w]
		for r := lo; r < hi; r++ {
			ev.Reset()
			row, ur := b.Row(r), u[r*n:(r+1)*n]
			for i, ui := range ur {
				bit := 0
				if ui < ev.Prob(i) {
					bit = 1
				}
				row[i] = bit
				ev.Fix(i, bit)
			}
		}
	})
}
