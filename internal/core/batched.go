package core

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// EvalMode is the type of NewBatchedEval's mode argument. It has the one
// value EvalAuto; the argument exists because the benchmark under bench/
// passes it.
type EvalMode int

// EvalAuto evaluates through the model's nn.BatchEvaluator — the only
// evaluation path the step and the serving layer have. Each family's
// NewBatchEvaluator returns whichever of its kernels the committed
// benchmark record shows faster (GEMMs for MADE and the RBM; for NADE and
// the RNN the row adaptor over their shared scalar skeleton, which is the
// scalar path itself), one per worker behind nn's single row split, so
// there is nothing here to choose. The package-level LocalEnergies is the
// scalar reference the path is pinned to.
const EvalAuto EvalMode = 0

// BatchedEval bundles a model's nn.BatchEvaluator with the reusable flip
// and base log-psi buffers the energy phase needs, so the steady-state
// training loop allocates nothing. Values produced through it are bitwise
// identical to the scalar LocalEnergies and per-row GradLogPsi (see the
// nn.BatchEvaluator contract).
type BatchedEval struct {
	be   nn.BatchEvaluator
	bits []int
	amps []float64
	flip []float64
}

// NewBatchedEval returns the evaluation wrapper for the model, or nil if
// the model does not implement nn.BatchEvaluatorBuilder (every shipped
// family does; the serving layer rejects a registration on nil). workers
// bounds the fan-out and never affects a produced value.
func NewBatchedEval(model nn.Wavefunction, _ EvalMode, workers int) *BatchedEval {
	bb, ok := model.(nn.BatchEvaluatorBuilder)
	if !ok {
		return nil
	}
	return &BatchedEval{be: bb.NewBatchEvaluator(workers)}
}

// NewBatchedEvalWith wraps an explicitly constructed nn.BatchEvaluator —
// the entry point tests and benchmarks use to drive reference evaluators
// (MADE's full-recompute flip oracle) through the same energy reduction.
func NewBatchedEvalWith(be nn.BatchEvaluator) *BatchedEval {
	return &BatchedEval{be: be}
}

// LocalEnergies is the step's local-energy evaluation: one FlipLogPsiBatch
// call evaluates the whole B x (F+1) flip super-batch, then the per-sample
// reduction accumulates the flip terms in the same order as the scalar
// loop. Outputs are bitwise identical to the package-level LocalEnergies on
// the same batch.
func (e *BatchedEval) LocalEnergies(h hamiltonian.Hamiltonian, b *sampler.Batch, workers int, out []float64) {
	flips := h.FlipTerms()
	if len(flips) == 0 {
		parallel.ForGrain(b.N, workers, diagGrainRows, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = h.Diagonal(b.Row(k))
			}
		})
		return
	}
	nf := len(flips)
	if cap(e.bits) < nf {
		e.bits = make([]int, nf)
		e.amps = make([]float64, nf)
	}
	bits, amps := e.bits[:nf], e.amps[:nf]
	for f, ft := range flips {
		bits[f], amps[f] = ft.Bit, ft.Amp
	}
	if cap(e.flip) < b.N*nf {
		e.flip = make([]float64, b.N*nf)
	}
	delta := e.flip[:b.N*nf]
	// nil base: the energy reduction exponentiates the deltas directly, so
	// the evaluator may skip base-only work (the RBM's ln-cosh fold).
	e.be.FlipLogPsiBatch(*b, bits, nil, delta)
	// Per row the reduction is nf exponentials — cheap next to the GEMMs
	// above, so small batches stay inline instead of paying dispatch.
	parallel.ForGrain(b.N, workers, diagGrainRows, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			l := h.Diagonal(b.Row(k))
			row := delta[k*nf : (k+1)*nf]
			for f := range row {
				// The evaluator emits the flip DELTAS under the model's own
				// FlipCache convention, so exponentiating them reproduces the
				// scalar loop's exp(cache.Delta(bit)) bit for bit.
				l += amps[f] * math.Exp(row[f])
			}
			out[k] = l
		}
	})
}

// LogPsi fills out[k] = log|psi(row k)| through the batched GEMM path —
// bitwise identical to per-row scalar model.LogPsi calls by the
// nn.BatchEvaluator contract. It is the shared amplitude dispatch the
// serving layer folds coalesced cross-request batches through: because
// every row's value is pinned to the scalar LogPsi of that row alone, the
// result for a given configuration is invariant to which other rows share
// the batch, which is what makes request coalescing invisible in served
// values. len(out) must be b.N.
func (e *BatchedEval) LogPsi(b *sampler.Batch, out []float64) {
	e.be.LogPsiBatch(*b, out)
}

// FillOws fills ows row k with grad log|psi(row k)| — the O_k rows of the
// gradient estimator and the Fisher operator — bitwise the per-row scalar
// GradLogPsi.
func (e *BatchedEval) FillOws(b *sampler.Batch, ows *tensor.Batch) {
	e.be.GradLogPsiBatch(*b, ows)
}

// AddWeightedGrad accumulates dst += sum_k w[k] * grad log|psi(row k)|, the
// REINFORCE gradient, without the O-rows: bitwise FillOws into a B x d batch
// followed by AddWeightedRows, at every worker count (the nn.BatchEvaluator
// weighted-reduce contract). dst is NOT zeroed first.
func (e *BatchedEval) AddWeightedGrad(b *sampler.Batch, w []float64, dst tensor.Vector) {
	e.be.AddWeightedGrad(*b, w, dst)
}

// diagGrainRows is the minimum rows per parallel range for the cheap
// per-row loops (diagonal-only energies, flip-delta exponentiation): below
// it, dispatching a worker costs more than its rows. Grain affects only how
// finely rows are partitioned, never per-row arithmetic, so results stay
// bitwise identical at every worker count.
const diagGrainRows = 64

// GradBlockSize is the fixed granule of the weighted row-sum reduction: rows
// are reduced into per-block partials (each block owned by exactly one
// worker, accumulated in ascending row order) and the partials are folded
// serially in ascending block order. The block boundary depends only on
// the row index — never on the worker count — so the reduced vector is
// bitwise invariant to the worker count, the property the distributed
// trainer's replica x worker bit-identity rests on. It is nn.GradBlockRows,
// the granule of the evaluators' fused form of the same reduction.
const GradBlockSize = nn.GradBlockRows

// GradBlocks returns the partial count AddWeightedRows needs for n rows
// (callers size the parts workspace once with it).
func GradBlocks(n int) int { return (n + GradBlockSize - 1) / GradBlockSize }

// AddWeightedRows accumulates dst += sum_k w[k] * rows.Sample(k) using the
// fixed-block scheme above, fanning block partials across up to workers
// goroutines. parts must be a GradBlocks(rows.N) x rows.Dim workspace; its
// contents are overwritten. dst is NOT zeroed first. Inside a block, and in
// the fold of the partials, the rows go through tensor.Batch.AddWeightedRows
// four at a time (eight quads per full block): each element still takes its
// terms one add at a time in ascending row order, so the bytes are those of
// one AXPY per row.
func AddWeightedRows(dst tensor.Vector, rows *tensor.Batch, w []float64, parts *tensor.Batch, workers int) {
	nb, d := GradBlocks(rows.N), rows.Dim
	if parts.N < nb || parts.Dim != d {
		panic("core: AddWeightedRows parts workspace too small")
	}
	parallel.For(nb, workers, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			p := parts.Sample(bi)
			p.Fill(0)
			k0, k1 := bi*GradBlockSize, min((bi+1)*GradBlockSize, rows.N)
			blk := tensor.Batch{N: k1 - k0, Dim: d, Data: rows.Data[k0*d : k1*d]}
			blk.AddWeightedRows(p, w[k0:k1], 0, d)
		}
	})
	foldParts(dst, parts, nb)
}

// foldParts adds the first nb block partials to dst in ascending block order.
func foldParts(dst tensor.Vector, parts *tensor.Batch, nb int) {
	folded := tensor.Batch{N: nb, Dim: parts.Dim, Data: parts.Data[:nb*parts.Dim]}
	folded.AddWeightedRows(dst, nil, 0, parts.Dim)
}
