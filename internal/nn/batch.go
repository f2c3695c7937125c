package nn

import (
	"sync"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// ConfigBatch is a flat batch of n-bit configurations, row-major N x Sites
// (sampler.Batch is an alias of it).
type ConfigBatch struct {
	N     int // number of configurations
	Sites int // bits per configuration
	Bits  []int
}

// Row returns configuration i, aliasing the batch storage.
func (b ConfigBatch) Row(i int) []int { return b.Bits[i*b.Sites : (i+1)*b.Sites] }

// rows returns configurations [lo, hi) as a batch, aliasing the storage.
func (b ConfigBatch) rows(lo, hi int) ConfigBatch {
	return ConfigBatch{N: hi - lo, Sites: b.Sites, Bits: b.Bits[lo*b.Sites : hi*b.Sites]}
}

// BatchEvaluator evaluates a whole batch of configurations in one call. A
// family answers NewBatchEvaluator with whichever of its kernels the
// committed record shows faster (nn.flip_batched_over_scalar in
// bench/results, and the kernel-pair table in docs/ARCHITECTURE.md, "Which
// kernel a family keeps"):
//
//   - MADE and the RBM fuse the per-sample matvecs into blocked matrix
//     products over the sample dimension — the evaluation fusion the paper's
//     scalability argument rests on (amplitude work is embarrassingly
//     parallel across samples, so it should saturate the hardware as GEMMs);
//   - NADE and the RNN run the row adaptor (row.go) over the one scalar
//     skeleton they share (seq.go): its FlipCache and GradEvaluator, one row
//     at a time. The flips of one row share every prefix of the chain, and
//     the scalar cache reuses them in place where a site-major slab kernel
//     has to snapshot and re-read them.
//
// Every implementation is single-threaded. The package goes parallel in one
// place, splitRows (row.go): NewBatchEvaluator(workers) puts one evaluator
// per worker behind it, a call's rows are cut into contiguous shares once,
// and share w runs on evaluator w — one dispatch per call, where a dispatch
// per site, flip group and column-range GEMM never amortised on a slab of a
// few hundred rows.
//
// Bitwise-equivalence guarantee: every method produces EXACTLY the bytes
// the corresponding scalar path produces — LogPsiBatch matches per-row
// LogPsi, GradLogPsiBatch matches per-row GradLogPsi, and FlipLogPsiBatch
// matches the model's FlipCache (base log-psi as Reset computes it, deltas
// as Delta computes them) — and is invariant to the worker count the
// evaluator was built with (rows are independent and every contraction
// order is per-row, so how the rows are shared out cannot reach a value).
// The row adaptor holds this by construction (it IS the scalar path); the
// GEMM implementations achieve it by accumulating
// every fused product in the same fixed contraction order as the scalar
// kernels (see tensor.MatMul and tensor.MatMulReLU, which MADE drives
// against pre-transposed masked weights; tensor.MatMulT is the same
// contract for untransposed operands) and by sharing the per-row reduction
// code with the scalar path verbatim. The guarantee is load-bearing:
// package dist checks replica consistency with exact ==, replicas may run
// different worker counts, and the scalar kernels remain the reference the
// tests and core's plain-loop oracle compare against.
//
// Tail-only invariant (MADE): the flip super-batch is evaluated under the
// mask-aware tail-only convention of MADE.NewFlipCache — for a flip of bit
// b only output sites j >= b are re-evaluated (column-range GEMMs over the
// tail), with the head of the log-probability fold resumed from the base
// row's prefix sums — and the resulting flipped log-psi values are bitwise
// identical to a fresh LogPsi of each flipped configuration. Halving
// layer-2 work and the log-sigmoid tail is therefore invisible in the
// values: scalar FlipCache.Delta and the batched delta agree with exact ==.
//
// Weighted-reduce contract: AddWeightedGrad is the REINFORCE gradient
// g = sum_k w_k O_k without the O-rows. Its arithmetic is fixed to the byte —
// dst += p_0 + p_1 + ..., one add per element and block in ascending block
// order, where partial p_i starts at +0 and takes w_k * O_k for the
// GradBlockRows rows of block i in ascending k, O_k being the bytes
// GradLogPsiBatch writes for row k — which is what core.AddWeightedRows does
// to a slab GradLogPsiBatch filled, so the two are interchangeable with ==
// at every worker count. A family may skip a term only where it can prove
// the term is +/-0: a partial that starts at +0 can never become -0 under
// round-to-nearest, so p + (+/-0) == p bitwise and the skip is invisible.
// MADE's fused backward rests on exactly that (made_batch.go); the other
// families run blockGrad below. Equality is claimed for finite activations
// and weights (0 * Inf is not a zero).
//
// An evaluator owns growable scratch and is NOT safe for concurrent use;
// one built with several workers fans each call out itself.
type BatchEvaluator interface {
	// LogPsiBatch fills out[k] = log|psi(row k)| for every row of b.
	// len(out) must be b.N.
	LogPsiBatch(b ConfigBatch, out []float64)
	// GradLogPsiBatch fills ows row k with grad log|psi(row k)|.
	// ows must be b.N x NumParams.
	GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch)
	// AddWeightedGrad accumulates dst += sum_k w[k] * grad log|psi(row k)|
	// in the fixed block order of the weighted-reduce contract above.
	// len(w) must be b.N and len(dst) NumParams; dst is NOT zeroed first.
	AddWeightedGrad(b ConfigBatch, w []float64, dst tensor.Vector)
	// FlipLogPsiBatch evaluates the B x (F+1) flip super-batch: base[k]
	// receives log|psi(row k)| computed exactly as the model's FlipCache
	// base (the fresh forward convention), and delta[k*len(flips)+f]
	// receives log|psi(row k with bit flips[f] flipped)| - base[k],
	// computed exactly as FlipCache.Delta computes it (for MADE: the
	// tail-only fresh flipped log-psi minus the base; for RBM: the O(h)
	// incremental ln-cosh delta). Returning deltas rather than absolute
	// flipped amplitudes is what keeps core.LocalEnergies bitwise
	// interchangeable between the scalar and batched paths for EVERY model
	// family — the scalar loop exponentiates Delta directly, and
	// subtracting a batched absolute from a batched base would re-round.
	// base may be nil when the caller needs only the deltas (the
	// local-energy hot path) — implementations then skip any base-only
	// work their convention allows (the RBM's per-row ln-cosh fold).
	// Otherwise len(base) must be b.N; len(delta) must be b.N*len(flips).
	FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64)
}

// The argument checks of the BatchEvaluator and BatchAncestralSampler
// contracts, shared by every implementation (n sites, d parameters).

func checkLogPsiBatch(n int, b ConfigBatch, out []float64) {
	if b.Sites != n {
		panic("nn: LogPsiBatch sites mismatch")
	}
	if len(out) != b.N {
		panic("nn: LogPsiBatch output length mismatch")
	}
}

func checkGradLogPsiBatch(n, d int, b ConfigBatch, ows *tensor.Batch) {
	if b.Sites != n {
		panic("nn: GradLogPsiBatch sites mismatch")
	}
	if ows.N != b.N || ows.Dim != d {
		panic("nn: GradLogPsiBatch ows shape mismatch")
	}
}

func checkAddWeightedGrad(n, d int, b ConfigBatch, w []float64, dst tensor.Vector) {
	if b.Sites != n {
		panic("nn: AddWeightedGrad sites mismatch")
	}
	if len(w) != b.N || len(dst) != d {
		panic("nn: AddWeightedGrad length mismatch")
	}
}

func checkFlipLogPsiBatch(n int, b ConfigBatch, flips []int, base, delta []float64) {
	if b.Sites != n {
		panic("nn: FlipLogPsiBatch sites mismatch")
	}
	if (base != nil && len(base) != b.N) || len(delta) != b.N*len(flips) {
		panic("nn: FlipLogPsiBatch output length mismatch")
	}
}

func checkAncestral(n int, b ConfigBatch, u []float64) {
	if b.Sites != n {
		panic("nn: batched ancestral sites mismatch")
	}
	if len(u) < b.N*n {
		panic("nn: batched ancestral uniforms too short")
	}
}

// GradBlockRows is the fixed granule of AddWeightedGrad's reduction. A block
// boundary depends only on the row index — never on a worker count or a slab
// size — which is what makes the reduced vector bitwise invariant to both.
const GradBlockRows = 32

// blockGrad is AddWeightedGrad for the families without a fused weighted
// backward — the RBM, and NADE and the RNN through the row adaptor: the
// contract as written, block by block over the evaluator's own
// GradLogPsiBatch, on O(GradBlockRows * d) scratch allocated at the first
// call (the serving path never makes one).
type blockGrad struct {
	buf  []float64    // GradBlockRows * d
	slab tensor.Batch // the current block's rows, a view over buf
	part tensor.Vector
}

func (g *blockGrad) addWeightedGrad(e BatchEvaluator, m Wavefunction, b ConfigBatch, w []float64, dst tensor.Vector) {
	d := m.NumParams()
	checkAddWeightedGrad(m.NumSites(), d, b, w, dst)
	if g.buf == nil {
		g.buf, g.part = make([]float64, GradBlockRows*d), tensor.NewVector(d)
	}
	for lo := 0; lo < b.N; lo += GradBlockRows {
		hi := min(lo+GradBlockRows, b.N)
		g.slab = tensor.Batch{N: hi - lo, Dim: d, Data: g.buf[:(hi-lo)*d]}
		e.GradLogPsiBatch(b.rows(lo, hi), &g.slab)
		g.part.Fill(0)
		g.slab.AddWeightedRows(g.part, w[lo:hi], 0, d)
		dst.Add(g.part)
	}
}

// BatchEvaluatorBuilder is implemented by every wavefunction family: the
// evaluation path of the training step and the serving layer. workers is
// how many single-threaded evaluators share the rows of each call (<= 0
// means GOMAXPROCS); the returned evaluator is worker-count invariant in its
// VALUES, workers only set the fan-out.
type BatchEvaluatorBuilder interface {
	NewBatchEvaluator(workers int) BatchEvaluator
}

// BatchAncestralSampler draws a whole batch of ancestral samples from
// pre-drawn uniforms. No autoregressive family has a cross-sample product
// in its ancestral step that pays (each conditional is one O(h) dot, or for
// the RNN one O(h^2) matvec, on the sample's own hidden state), so MADE,
// NADE and the RNN all run the row adaptor (row.go): each worker walks its
// rows through one ConditionalEvaluator while that row's state is hot.
//
// Sample fills b's bits from pre-drawn uniforms u (row-major, u[k*Sites+i]
// drives bit i of sample k): bit = 1 iff u < P(x_i = 1 | x_<i). Because the
// per-sample conditional arithmetic is the scalar incremental evaluator's
// (the adaptor calls it), the sampled bits are bitwise identical to
// sample-at-a-time ancestral sampling fed the same uniforms, at every
// worker count.
type BatchAncestralSampler interface {
	Sample(b ConfigBatch, u []float64, workers int)
	// ForwardPasses reports the cumulative number of full-network forward
	// passes Sample has consumed (the paper's cost unit for Figure 1): one
	// per sample for an incremental evaluator, n for Algorithm 1.
	ForwardPasses() int64
}

// BatchAncestralBuilder is implemented by autoregressive models that
// provide a batched ancestral sampler.
type BatchAncestralBuilder interface {
	NewBatchAncestralSampler() BatchAncestralSampler
}

// derivedCache is the one stale/rebuild protocol of the families that keep
// state derived from their parameters (MADE's masked-weight products, the
// RBM's W^T); a model embeds it and supplies only the rebuild body. The
// zero value is stale. The mutex serializes rebuilds, so concurrent first
// use from several goroutines (two BatchEvaluators sharing one model)
// builds once and shares the result; it does NOT make in-place writes to
// Params() safe — those still require evaluation quiescence, which is also
// why what a rebuild produced stays valid for a whole parallel section.
type derivedCache struct {
	mu    sync.Mutex
	fresh bool
}

// invalidateParams marks the derived state stale. It must be called after
// any in-place mutation of Params() (optimizer steps, checkpoint loads);
// trainers do this through nn.InvalidateParams.
func (c *derivedCache) invalidateParams() {
	c.mu.Lock()
	c.fresh = false
	c.mu.Unlock()
}

// ensure runs rebuild if the parameters changed since the last build.
func (c *derivedCache) ensure(rebuild func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fresh {
		rebuild()
		c.fresh = true
	}
}

// InvalidateParams notifies w, if it caches parameter-derived state (such
// as MADE's masked-weight product W.M), that its parameter vector was
// mutated in place. Trainers must call this after every optimizer step;
// it is a no-op for models without derived caches.
func InvalidateParams(w Wavefunction) {
	if v, ok := w.(interface{ invalidateParams() }); ok {
		v.invalidateParams()
	}
}

// Prewarm materializes any lazy parameter-derived caches the model keeps
// (MADE's masked-weight products, the RBM's W^T; NADE and the RNN have
// none) for the current parameter version. Coordinators call it
// before fanning evaluation out to workers so the rebuild happens once, up
// front, on the coordinating goroutine instead of surprising the first
// worker that needs it. Rebuilds are mutex-serialized inside each model, so
// skipping Prewarm is a latency cost, never a data race; it is a no-op for
// models without derived caches. The parameter is any (rather than
// Wavefunction) so call sites that only hold a narrower view of the model
// (CacheBuilder, GradEvaluator) can still pre-warm it.
func Prewarm(model any) {
	if p, ok := model.(interface{ prewarmCaches() }); ok {
		p.prewarmCaches()
	}
}
