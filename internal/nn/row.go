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

// splitEvaluator is the package's one parallel layer under BatchEvaluator:
// it holds one single-threaded evaluator per worker and cuts every call into
// contiguous row shares, share w going to evaluator w on its own goroutine.
// Rows are independent and every kernel's contraction order is per-row, so
// each output is the bytes the lone evaluator would have written, at every
// worker count; with one share (one worker, or a batch of one row) the call
// runs inline on the caller's goroutine. One dispatch per call is what lets a
// second worker pay on a slab of a few hundred rows — a dispatch per site,
// per flip group and per column-range GEMM never amortised (see
// docs/ARCHITECTURE.md, "Which kernel a family keeps"). Sub-evaluators grow
// their scratch to their own share, not to the whole batch. AddWeightedGrad
// is the one method whose rows are not independent — they meet in a sum —
// so it shares out the distinct rows' state and then the reduction's fixed
// blocks, and orders the blocks' folds; see there.
type splitEvaluator struct {
	n, d int // sites and parameters, for the argument checks
	subs []blockEvaluator
	// The channels AddWeightedGrad's fold token travels on, made at its
	// first call.
	turn []chan struct{}
}

// splitRows returns build() itself for one worker, and workers (<= 0 means
// GOMAXPROCS) of them behind a splitEvaluator otherwise. It is how every
// family implements NewBatchEvaluator.
func splitRows(m Wavefunction, workers int, build func() blockEvaluator) BatchEvaluator {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	if workers == 1 {
		return build()
	}
	s := &splitEvaluator{n: m.NumSites(), d: m.NumParams(), subs: make([]blockEvaluator, workers)}
	for w := range s.subs {
		s.subs[w] = build()
	}
	return s
}

// LogPsiBatch implements BatchEvaluator.
func (s *splitEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	checkLogPsiBatch(s.n, b, out)
	forRows(b.N, len(s.subs), func(w, lo, hi int) {
		s.subs[w].LogPsiBatch(b.rows(lo, hi), out[lo:hi])
	})
}

// GradLogPsiBatch implements BatchEvaluator.
func (s *splitEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	checkGradLogPsiBatch(s.n, s.d, b, ows)
	forRows(b.N, len(s.subs), func(w, lo, hi int) {
		s.subs[w].GradLogPsiBatch(b.rows(lo, hi),
			&tensor.Batch{N: hi - lo, Dim: s.d, Data: ows.Data[lo*s.d : hi*s.d]})
	})
}

// AddWeightedGrad implements BatchEvaluator. The reduction's blocks are
// what is shared out: evaluator w takes blocks w, w+W, w+2W, ..., reduces
// each into its own block partial and folds that into dst when the token —
// the right to fold, passed round the workers in block order — reaches
// it. dst takes the partials in ascending block order whatever W is, at
// most W are live, and a worker only ever waits for the fold of the block
// before its own. The sub-evaluators share one per-distinct-row state.
// Handed distinct rows and a map, a first dispatch fills it, each
// evaluator taking a contiguous share of b's rows, since any block may
// read any of them; when every row is its own (a nil of), each evaluator
// fills its blocks' rows as it reaches them, in the one dispatch.
func (s *splitEvaluator) AddWeightedGrad(b ConfigBatch, of []int, w []float64, dst tensor.Vector) {
	checkAddWeightedGrad(s.n, s.d, b, of, w, dst)
	nb := (len(w) + GradBlockRows - 1) / GradBlockRows
	workers := min(len(s.subs), nb)
	if workers == 0 {
		return
	}
	if s.turn == nil {
		s.turn = make([]chan struct{}, len(s.subs))
		for i := range s.turn {
			s.turn[i] = make(chan struct{}, 1) // holds the token between a pass and its pickup
		}
	}
	s.subs[0].prepareWeighted(b.N)
	if of != nil {
		forRows(b.N, len(s.subs), func(i, lo, hi int) {
			s.subs[i].fillWeighted(b, lo, hi)
		})
	}
	s.turn[0] <- struct{}{}
	parallel.ForEach(workers, workers, func(i int) {
		sub := s.subs[i]
		for blk := i; blk < nb; blk += workers {
			k0 := blk * GradBlockRows
			k1 := min(k0+GradBlockRows, len(w))
			if of == nil {
				sub.fillWeighted(b, k0, k1)
			}
			sub.addWeightedBlock(b, of, w, k0, k1)
			<-s.turn[i]
			sub.foldWeightedBlock(dst, blk == 0)
			s.turn[(i+1)%workers] <- struct{}{}
		}
	})
	<-s.turn[nb%workers]
}

// FlipLogPsiBatch implements BatchEvaluator.
func (s *splitEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	checkFlipLogPsiBatch(s.n, b, flips, base, delta)
	nf := len(flips)
	forRows(b.N, len(s.subs), func(w, lo, hi int) {
		var share []float64
		if base != nil {
			share = base[lo:hi]
		}
		s.subs[w].FlipLogPsiBatch(b.rows(lo, hi), flips, share, delta[lo*nf:hi*nf])
	})
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
	m     rowModel
	cache FlipCache
	grad  GradEvaluator
	// AddWeightedGrad: the scalar backward one block of rows at a time.
	blockGrad
}

// newRowEvaluator builds the adaptor over one FlipCache and one
// GradEvaluator; a call allocates nothing.
func newRowEvaluator(m rowModel) *rowEvaluator {
	e := &rowEvaluator{m: m, cache: m.NewFlipCache(make([]int, m.NumSites())), grad: m.NewGradEvaluator()}
	e.blockGrad = blockGrad{ev: e, wf: m}
	return e
}

// LogPsiBatch implements BatchEvaluator.
func (e *rowEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	checkLogPsiBatch(e.m.NumSites(), b, out)
	for r := range out {
		out[r] = e.grad.LogPsi(b.Row(r))
	}
}

// GradLogPsiBatch implements BatchEvaluator through the scalar backward:
// NADE's accumulation chain records per-sample states, so there is no
// cross-row GEMM to fuse without changing the arithmetic.
func (e *rowEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	checkGradLogPsiBatch(e.m.NumSites(), e.m.NumParams(), b, ows)
	for r := 0; r < b.N; r++ {
		e.grad.GradLogPsi(b.Row(r), ows.Sample(r))
	}
}

// FlipLogPsiBatch implements BatchEvaluator: each row rebases the FlipCache
// once and reads the base and every delta off it.
func (e *rowEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	checkFlipLogPsiBatch(e.m.NumSites(), b, flips, base, delta)
	nf := len(flips)
	for r := 0; r < b.N; r++ {
		e.cache.Reset(b.Row(r))
		if base != nil {
			base[r] = e.cache.LogPsi()
		}
		for f, bit := range flips {
			delta[r*nf+f] = e.cache.Delta(bit)
		}
	}
}

// rowAncestral is the BatchAncestralSampler that walks each row through a
// per-worker ConditionalEvaluator — sample-at-a-time ancestral sampling over
// the pre-drawn uniforms. Evaluators are built on first use of a worker slot
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
		for r := lo; r < hi; r++ {
			drawRow(a.evals[w], b.Row(r), u[r*n:(r+1)*n])
		}
	})
}

// drawRow samples one row site by site through ev: bit i is 1 exactly when
// its uniform falls below the conditional probability.
func drawRow(ev ConditionalEvaluator, row []int, u []float64) {
	ev.Reset()
	for i, ui := range u {
		bit := 0
		if ui < ev.Prob(i) {
			bit = 1
		}
		row[i] = bit
		ev.Fix(i, bit)
	}
}

// ForwardPasses implements BatchAncestralSampler: what the evaluators
// counted.
func (a *rowAncestral) ForwardPasses() int64 {
	var passes int64
	for _, ev := range a.evals {
		passes += ev.ForwardPasses()
	}
	return passes
}

// recomputeFlips is the full-recompute reference for FlipLogPsiBatch over
// any BatchEvaluator: LogPsiBatch of the base rows and of the B x F flipped
// rows, delta = flipped - base. That is the fresh-forward flip convention
// stated directly, sharing no code with the flip kernel it checks. It is
// valid for MADE and NADE, NOT for the RBM, whose delta is the
// incremental ln-cosh update rather than a difference of two log-psi values.
type recomputeFlips struct{ BatchEvaluator }

// FlipLogPsiBatch implements BatchEvaluator by full recompute.
func (e recomputeFlips) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	checkFlipLogPsiBatch(b.Sites, b, flips, base, delta)
	if base == nil {
		base = make([]float64, b.N)
	}
	e.LogPsiBatch(b, base)
	nf := len(flips)
	flipped := ConfigBatch{N: b.N * nf, Sites: b.Sites, Bits: make([]int, b.N*nf*b.Sites)}
	for k := 0; k < b.N; k++ {
		for f, bit := range flips {
			row := flipped.Row(k*nf + f)
			copy(row, b.Row(k))
			row[bit] = 1 - row[bit]
		}
	}
	e.LogPsiBatch(flipped, delta)
	for i := range delta {
		delta[i] -= base[i/nf]
	}
}
