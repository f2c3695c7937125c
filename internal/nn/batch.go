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
//   - NADE runs the row adaptor (row.go) over its scalar FlipCache and
//     GradEvaluator (nade.go), one row at a time. The flips of one row share every prefix of the chain, and
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
// The batch may come as its distinct rows plus the map of each batch row
// to one of them: O_k is a function of row k alone, so an evaluator may
// compute what does not depend on w_k once per distinct row, as MADE's
// fused backward does (made_batch.go); every row still takes its own
// w_k * O_k add, in its place in its block. The other families run
// blockGrad below. Equality is claimed for finite activations and weights
// (0 * Inf is not a zero).
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
	// AddWeightedGrad accumulates dst += sum_k w[k] * grad log|psi(x_k)|
	// in the fixed block order of the weighted-reduce contract above, where
	// batch row x_k is row of[k] of b: b holds the batch's distinct rows
	// and of maps each batch row to one of them. A nil of is the identity
	// (b is the batch). len(w) must be len(of) (b.N for a nil of) and
	// len(dst) NumParams; dst is NOT zeroed first.
	AddWeightedGrad(b ConfigBatch, of []int, w []float64, dst tensor.Vector)
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

func checkAddWeightedGrad(n, d int, b ConfigBatch, of []int, w []float64, dst tensor.Vector) {
	if b.Sites != n {
		panic("nn: AddWeightedGrad sites mismatch")
	}
	rows := b.N
	if of != nil {
		rows = len(of)
	}
	if len(w) != rows || len(dst) != d {
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

// blockEvaluator is a single-threaded BatchEvaluator with its
// AddWeightedGrad cut into the passes splitEvaluator shares out over its
// workers.
type blockEvaluator interface {
	BatchEvaluator
	weightedPasses
}

// weightedPasses is AddWeightedGrad in passes. The one-evaluator form is
// addWeightedGrad below.
type weightedPasses interface {
	// prepareWeighted readies the per-distinct-row state for a call over
	// rows distinct rows. It runs on one goroutine before fillWeighted, and
	// one call serves every evaluator that shares the state.
	prepareWeighted(rows int)
	// fillWeighted computes the state of distinct rows [lo, hi) of b:
	// everything the rows' terms need that does not depend on a weight.
	fillWeighted(b ConfigBatch, lo, hi int)
	// addWeightedBlock reduces batch rows [k0, k1), at most GradBlockRows
	// of them, into the evaluator's block partial: from +0, w[k] *
	// O_{of[k]} for k ascending.
	addWeightedBlock(b ConfigBatch, of []int, w []float64, k0, k1 int)
	// foldWeightedBlock adds the block partial to dst, one add per
	// element, and readies the partial for the next block. first says
	// whether this is the call's first fold into dst: until then dst may
	// hold a -0, which only an add of the partial's +0 turns into +0.
	foldWeightedBlock(dst tensor.Vector, first bool)
}

// addWeightedGrad runs AddWeightedGrad's passes on one evaluator: the
// per-distinct-row state, then the blocks in ascending order.
func addWeightedGrad(e weightedPasses, b ConfigBatch, of []int, w []float64, dst tensor.Vector) {
	e.prepareWeighted(b.N)
	e.fillWeighted(b, 0, b.N)
	for k0 := 0; k0 < len(w); k0 += GradBlockRows {
		k1 := min(k0+GradBlockRows, len(w))
		e.addWeightedBlock(b, of, w, k0, k1)
		e.foldWeightedBlock(dst, k0 == 0)
	}
}

// blockGrad is AddWeightedGrad for the families without a fused weighted
// backward — the RBM, and NADE through the row adaptor: the contract as
// written, block by block over the evaluator's own GradLogPsiBatch of the
// block's rows (gathered through of), on O(GradBlockRows * d) scratch
// allocated at the first call (the serving path never makes one). It
// keeps no per-distinct-row state. An evaluator embeds it, with ev pointing
// back at the evaluator and wf at its model.
type blockGrad struct {
	ev   BatchEvaluator
	wf   Wavefunction
	buf  []float64    // GradBlockRows * d
	slab tensor.Batch // the current block's rows, a view over buf
	part tensor.Vector
	bits []int // the current block's configurations, when gathered
}

// AddWeightedGrad implements BatchEvaluator.
func (g *blockGrad) AddWeightedGrad(b ConfigBatch, of []int, w []float64, dst tensor.Vector) {
	checkAddWeightedGrad(g.wf.NumSites(), g.wf.NumParams(), b, of, w, dst)
	addWeightedGrad(g, b, of, w, dst)
}

func (g *blockGrad) prepareWeighted(int) {}

func (g *blockGrad) fillWeighted(ConfigBatch, int, int) {}

func (g *blockGrad) addWeightedBlock(b ConfigBatch, of []int, w []float64, k0, k1 int) {
	d := g.wf.NumParams()
	if g.buf == nil {
		g.buf, g.part = make([]float64, GradBlockRows*d), tensor.NewVector(d)
		g.bits = make([]int, GradBlockRows*b.Sites)
	}
	var rows ConfigBatch
	if of == nil {
		rows = b.rows(k0, k1)
	} else {
		rows = ConfigBatch{N: k1 - k0, Sites: b.Sites, Bits: g.bits[:(k1-k0)*b.Sites]}
		for k := k0; k < k1; k++ {
			copy(rows.Row(k-k0), b.Row(of[k]))
		}
	}
	g.slab = tensor.Batch{N: k1 - k0, Dim: d, Data: g.buf[:(k1-k0)*d]}
	g.ev.GradLogPsiBatch(rows, &g.slab)
	g.part.Fill(0)
	g.slab.AddWeightedRows(g.part, w[k0:k1], 0, d)
}

func (g *blockGrad) foldWeightedBlock(dst tensor.Vector, _ bool) { dst.Add(g.part) }

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
// in its ancestral step that pays (each conditional is one O(h) dot on the
// sample's own hidden state), so MADE and NADE both run the row adaptor
// (row.go): each worker walks its rows through one ConditionalEvaluator
// while that row's state is hot.
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
// (MADE's masked-weight products, the RBM's W^T; NADE has none) for the current parameter version. Coordinators call it
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
