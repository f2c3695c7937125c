package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// batchSlabRows caps the number of network rows materialized at once by the
// batched evaluator, bounding workspace memory independently of the batch
// size (a B=1024, n=32 TIM flip super-batch is 33k rows; slabs keep the
// activations a few MB). Rows are independent, so slabbing cannot change a
// single output bit.
const batchSlabRows = 4096

// growMat returns a rows x cols matrix view over buf, growing it as needed.
// Contents are fully overwritten by the kernels, so no zeroing happens.
func growMat(buf *[]float64, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: (*buf)[:need]}
}

// madeBatchEvaluator is MADE's BatchEvaluator: it fuses the per-sample
// masked matvecs of a whole batch into blocked GEMMs against the cached
// masked weights (see MADE.maskedWeights), slab by slab. All values are
// bitwise identical to the scalar paths; see the BatchEvaluator contract.
// It is single-threaded: splitRows (row.go) puts one per worker behind the
// package's one parallel dispatch.
type madeBatchEvaluator struct {
	m *MADE
	// Slab workspaces, grown on demand and reused across calls: bufXF/Z1/A/
	// Z2 back the dense forward, bufZB1/ZB2 the flip super-batch layers,
	// bufP the per-row log-probability prefix sums, bufXB the base float
	// configurations of a flip slab, and bufPre the per-site layer-1
	// prefix snapshots the tail-only flip rows resume from.
	bufXF, bufZ1, bufA, bufZ2 []float64
	bufZB1, bufZB2, bufP      []float64
	bufXB, bufPre, bufPre2    []float64
	bufBase                   []float64
	dz2, da                   tensor.Vector // backward scratch
	needSnap, needPre         []bool        // per-call flip marks over hidden units / sites
	part                      tensor.Vector // AddWeightedGrad's block partial (d), allocated at its first call
}

// NewBatchEvaluator implements BatchEvaluatorBuilder: one GEMM evaluator per
// worker behind splitRows. workers bounds the fan-out (<= 0 means
// GOMAXPROCS) and does not affect any output value. The evaluator is not
// safe for concurrent use.
func (m *MADE) NewBatchEvaluator(workers int) BatchEvaluator {
	return splitRows(m, workers, func() BatchEvaluator {
		return &madeBatchEvaluator{m: m, dz2: tensor.NewVector(m.n), da: tensor.NewVector(m.h),
			needSnap: make([]bool, m.h), needPre: make([]bool, m.n)}
	})
}

// NewFullFlipBatchEvaluator returns NewBatchEvaluator(workers) behind the
// full-recompute reference (recomputeFlips): its FlipLogPsiBatch evaluates
// every flipped row with LogPsiBatch instead of the tail-only kernel, and
// must agree with it byte for byte. It is the oracle the nn and core tests
// hold the kernel to.
func (m *MADE) NewFullFlipBatchEvaluator(workers int) BatchEvaluator {
	return recomputeFlips{m.NewBatchEvaluator(workers)}
}

// toFloats converts configuration rows [lo, hi) of b into xf rows [0, ...).
func toFloats(b ConfigBatch, lo, hi int, xf *tensor.Matrix) {
	for r := 0; r < hi-lo; r++ {
		row := xf.Row(r)
		for i, bit := range b.Row(lo + r) {
			row[i] = float64(bit)
		}
	}
}

// forwardSlab runs the dense two-GEMM forward for rows [lo, hi) of b,
// returning the xf/z1/a/z2 slab views (z1 is the pre-activation, a the
// ReLU activation). The arithmetic per row is exactly MADE.forward's.
func (e *madeBatchEvaluator) forwardSlab(b ConfigBatch, lo, hi int, needPre bool) (xf, z1, a, z2 *tensor.Matrix) {
	m := e.m
	rows := hi - lo
	wm1t, wm2t := m.maskedWeights()
	xf = growMat(&e.bufXF, rows, m.n)
	z1 = growMat(&e.bufZ1, rows, m.h)
	z2 = growMat(&e.bufZ2, rows, m.n)
	toFloats(b, lo, hi, xf)
	tensor.MatMul(z1, xf, wm1t, 1)
	tensor.AddRowBias(z1, m.B1)
	if needPre {
		// The backward pass needs the activation alongside the ReLU gate,
		// so materialize it (the scalar forward's copy+ReLU); otherwise the
		// fused MatMulReLU consumes the pre-activation directly.
		a = growMat(&e.bufA, rows, m.h)
		copy(a.Data, z1.Data)
		tensor.ReLU(a.Data)
	} else {
		a = z1
	}
	tensor.MatMulReLU(z2, a, wm2t, 1)
	tensor.AddRowBias(z2, m.B2)
	return xf, z1, a, z2
}

// LogPsiBatch implements BatchEvaluator; out[k] matches LogPsi(row k)
// bitwise.
func (e *madeBatchEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	m := e.m
	checkLogPsiBatch(m.n, b, out)
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := min(lo+batchSlabRows, b.N)
		_, _, _, z2 := e.forwardSlab(b, lo, hi, false)
		for r := 0; r < hi-lo; r++ {
			out[lo+r] = 0.5 * logProbFromZ2(b.Row(lo+r), z2.Row(r))
		}
	}
}

// GradLogPsiBatch implements BatchEvaluator: the forward runs as two
// blocked GEMMs shared across the slab, then the analytic backward
// (gradFromForward, the same code the scalar path runs) fills each ows row.
func (e *madeBatchEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	m := e.m
	checkGradLogPsiBatch(m.n, m.NumParams(), b, ows)
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := min(lo+batchSlabRows, b.N)
		_, z1, a, z2 := e.forwardSlab(b, lo, hi, true)
		for r := 0; r < hi-lo; r++ {
			grad := ows.Sample(lo + r)
			m.gradFromForward(b.Row(lo+r), z1.Row(r), a.Row(r), z2.Row(r), e.dz2, e.da, grad)
			grad.Scale(0.5)
		}
	}
}

// AddWeightedGrad implements BatchEvaluator with the fused weighted
// backward: no O-row is written. Per slab the forward runs as the two GEMMs
// of LogPsiBatch and dZ2 overwrites the output pre-activations; then every
// GradBlockRows block accumulates w_k * O_k into a d-sized partial that
// starts at +0 (addWeightedRow) and the partial is added to dst
// (foldWeightedPartial).
func (e *madeBatchEvaluator) AddWeightedGrad(b ConfigBatch, w []float64, dst tensor.Vector) {
	m := e.m
	checkAddWeightedGrad(m.n, m.NumParams(), b, w, dst)
	if e.part == nil {
		e.part = tensor.NewVector(m.NumParams())
	}
	_, wm2t := m.maskedWeights()
	for lo := 0; lo < b.N; lo += batchSlabRows { // a multiple of GradBlockRows
		hi := min(lo+batchSlabRows, b.N)
		// The activation is not materialized: the backward reads a_k only
		// where z1_k > 0, and there a_k is z1_k.
		xf, z1, _, dz2 := e.forwardSlab(b, lo, hi, false)
		for i, x := range xf.Data { // dlogpi/dz2_j = x_j - sigma(z2_j), in place
			dz2.Data[i] = x - 1/(1+math.Exp(-dz2.Data[i]))
		}
		for k0 := 0; k0 < hi-lo; k0 += GradBlockRows {
			e.part.Fill(0)
			for r := k0; r < min(k0+GradBlockRows, hi-lo); r++ {
				m.addWeightedRow(e.part, w[lo+r], xf.Row(r), z1.Row(r), dz2.Row(r), wm2t)
			}
			m.foldWeightedPartial(dst, e.part)
		}
	}
}

// addWeightedRow adds w * O to the block partial part, O being the row
// gradFromForward + Scale(0.5) writes for the float-encoded configuration xf
// with hidden pre-activations z1 and output deltas dz2. Every term keeps the
// reference's rounding points — the element 0.5 * g first, then the product
// with w, then one add — and a term is left out only where g is a zero the
// reference stores: a ReLU-inactive unit (z1_k <= 0: a_k and dz1_k are
// zeros, so its whole W1 row, b1 entry and W2 column are) and a masked-out
// weight. Then w * (0.5 * g) is +/-0 and the partial, which is never -0,
// does not see it; for the same reason an unset input bit may stay in the
// W1 loop as the exact product c * 0. part is laid out like theta except
// that the W2 block is TRANSPOSED (h x n): unit k's masked-in outputs
// j >= deg(k) are then one contiguous run against dz2 and row k of wm2t, and
// one pass over it adds the W2 terms and contracts the hidden delta da_k =
// sum_j (W2.M2)[j][k] * dz2_j, j ascending, one product per term:
// gradFromForward's chain, whose other terms add +/-0 to a sum from +0.
func (m *MADE) addWeightedRow(part tensor.Vector, w float64, xf, z1, dz2 tensor.Vector, wm2t *tensor.Matrix) {
	h, n := m.h, m.n
	gW1, gB1 := part[:h*n], part[h*n:h*n+h]
	gW2T, gB2 := part[h*n+h:h*n+h+n*h], part[h*n+h+n*h:]
	for j, dj := range dz2 {
		gB2[j] += w * (0.5 * dj)
	}
	for k, ak := range z1 {
		dk := m.deg[k] // unit k sees inputs i < dk and feeds outputs j >= dk
		if ak <= 0 || dk == 0 {
			continue // inactive, or (n = 1) wired to nothing: every term is a zero
		}
		zsub := dz2[dk:]
		// [:len(zsub)] restates the lengths so the inner bounds checks drop.
		dsub := gW2T[k*n+dk : (k+1)*n][:len(zsub)]
		wsub := wm2t.Data[k*n+dk : (k+1)*n][:len(zsub)]
		var dak float64
		for j, dj := range zsub {
			dsub[j] += w * (0.5 * (dj * ak))
			dak += wsub[j] * dj
		}
		c := w * (0.5 * dak)
		gB1[k] += c
		row := gW1[k*n : k*n+dk]
		for i, xi := range xf[:dk] {
			row[i] += c * xi
		}
	}
}

// foldWeightedPartial adds a block partial in addWeightedRow's layout to dst
// in theta's: one add per element, zeros included (dst may hold a -0 that
// the reference's dst + 0 turns into +0).
func (m *MADE) foldWeightedPartial(dst, part tensor.Vector) {
	h, n := m.h, m.n
	o2 := h*n + h // [W1 | b1] and b2 share theta's layout
	dst[:o2].Add(part[:o2])
	dst[o2+n*h:].Add(part[o2+n*h:])
	gW2, gW2T := dst[o2:o2+n*h], part[o2:o2+n*h]
	for j := 0; j < n; j++ {
		row := gW2[j*h : (j+1)*h]
		for k := range row {
			row[k] += gW2T[k*n+j]
		}
	}
}

// FlipLogPsiBatch implements BatchEvaluator under the tail-only flip
// convention. Base rows run the fresh two-GEMM forward (the flip cache's
// base convention) and record the per-site prefix sums of the
// log-probability fold. Flip rows are laid out group-major (all B rows of
// flip f contiguous) so each group shares one column range: layer 1 is
// seeded by copying the base pre-activations and recomputing only the
// hidden-unit runs whose mask sees the flipped bit (MADE.flipRuns), layer 2
// runs a column-range GEMM over output sites j > b only, and the fold
// resumes from the base prefix p[b] — on average halving layer-2 and
// log-sigmoid work while producing flipped log-psi values bitwise identical
// to a fresh LogPsi. The emitted deltas subtract the base exactly as the
// scalar FlipCache.Delta does.
func (e *madeBatchEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	m := e.m
	nf := len(flips)
	checkFlipLogPsiBatch(m.n, b, flips, base, delta)
	if base == nil {
		// MADE's deltas subtract the base log-psi, and the prefix fold
		// computes it as a byproduct — stage it in a reusable buffer.
		if cap(e.bufBase) < b.N {
			e.bufBase = make([]float64, b.N)
		}
		base = e.bufBase[:b.N]
	}
	wm1t, wm2t := m.maskedWeights()
	// Layer-2 prefix snapshots are taken at the first hidden unit each
	// flip bit can change (the start of its first flipRuns range): every
	// unit before it is bitwise untouched by that flip, so the flip row's
	// layer-2 fold can resume from the base fold there.
	maxK0 := -1
	needSnap, needPre := e.needSnap, e.needPre
	clear(needSnap)
	clear(needPre)
	for _, bit := range flips {
		if runs := m.flipRuns[bit]; len(runs) > 0 {
			needPre[bit] = true
			k0 := runs[0][0]
			needSnap[k0] = true
			maxK0 = max(maxK0, k0)
		}
	}
	slab := max(batchSlabRows/(nf+1), 1)
	for lo := 0; lo < b.N; lo += slab {
		hi := min(lo+slab, b.N)
		s := hi - lo
		// Fresh base forward. Layer 1 runs as an explicit ascending-site
		// fold so it can snapshot, for every site i, the partial sums over
		// inputs < i (pre rows [i*s, (i+1)*s)): a flip of bit i resumes each
		// element's accumulation chain from that snapshot, which is bitwise
		// the same chain MatMul runs. The fold adds wm1t row i to every
		// sample with bit i set — exactly MatMul's ascending-k skip-zero /
		// multiply-elided accumulation.
		xfb := growMat(&e.bufXB, s, m.n)
		toFloats(b, lo, hi, xfb)
		zb1 := growMat(&e.bufZ1, s, m.h)
		var pre *tensor.Matrix
		if nf == 0 {
			tensor.MatMul(zb1, xfb, wm1t, 1)
		} else {
			pre = growMat(&e.bufPre, m.n*s, m.h)
			clear(zb1.Data)
			for i := 0; i < m.n; i++ {
				if needPre[i] {
					// Only sites actually flipped (with a non-empty run)
					// are ever resumed from; skip the other bands' copies.
					copy(pre.Data[i*s*m.h:(i+1)*s*m.h], zb1.Data[:s*m.h])
				}
				// Input i's mask support is exactly flipRuns[i] (units of
				// degree > i); the masked-out weights are +/-0, so adding
				// only the support is bitwise MatMul's full-row add.
				wrow := wm1t.Row(i)
				iruns := m.flipRuns[i]
				for si := 0; si < s; si++ {
					if xfb.Row(si)[i] == 1 {
						drow := zb1.Row(si)
						for _, run := range iruns {
							dst := drow[run[0]:run[1]]
							src := wrow[run[0]:run[1]]
							for k := range dst {
								dst[k] += src[k]
							}
						}
					}
				}
			}
		}
		tensor.AddRowBias(zb1, m.B1)
		// Base layer 2, as the explicit ascending-unit fold (bitwise
		// MatMulReLU's chain) so it can snapshot the partial sums the flip
		// rows resume from.
		zb2 := growMat(&e.bufZ2, s, m.n)
		var pre2 *tensor.Matrix
		if nf == 0 || maxK0 < 0 {
			tensor.MatMulReLU(zb2, zb1, wm2t, 1)
		} else {
			pre2 = growMat(&e.bufPre2, (maxK0+1)*s, m.n)
			clear(zb2.Data)
			for k := 0; k < m.h; k++ {
				if k <= maxK0 && needSnap[k] {
					copy(pre2.Data[k*s*m.n:(k+1)*s*m.n], zb2.Data[:s*m.n])
				}
				// Unit k's layer-2 mask support is the output suffix
				// [deg(k), n) (empty at degree 0); masked-out weights are
				// +/-0, so restricting the add is bitwise MatMulReLU.
				d0 := m.deg[k]
				if d0 == 0 {
					continue
				}
				wsub := wm2t.Row(k)[d0:]
				for si := 0; si < s; si++ {
					if av := zb1.Row(si)[k]; av > 0 {
						dsub := zb2.Row(si)[d0:]
						for j, wv := range wsub {
							dsub[j] += av * wv
						}
					}
				}
			}
		}
		tensor.AddRowBias(zb2, m.B2)
		p := growMat(&e.bufP, s, m.n+1)
		for si := 0; si < s; si++ {
			x := b.Row(lo + si)
			zrow := zb2.Row(si)
			prow := p.Row(si)
			var lp float64
			prow[0] = 0
			for j, xb := range x {
				lp += condTerm(zrow[j], xb)
				prow[j+1] = lp
			}
			base[lo+si] = 0.5 * lp
		}
		if nf == 0 {
			continue
		}
		fr := s * nf
		xff := growMat(&e.bufXF, fr, m.n)
		zf1 := growMat(&e.bufZB1, fr, m.h)
		zf2 := growMat(&e.bufZB2, fr, m.n)
		// Group-major super-batch: row f*s+si is sample si with bit
		// flips[f] flipped. Layer 1 is seeded with the base pre-activations
		// — bitwise valid for every hidden unit the mask hides from the
		// flipped bit — and only the flipRuns columns are recomputed.
		for r := 0; r < fr; r++ {
			f, si := r/s, r%s
			x := b.Row(lo + si)
			row := xff.Row(r)
			for i, xb := range x {
				row[i] = float64(xb)
			}
			row[flips[f]] = float64(1 - x[flips[f]])
			copy(zf1.Row(r), zb1.Row(si))
		}
		for f, bit := range flips {
			xb := &tensor.Matrix{Rows: s, Cols: m.n, Data: xff.Data[f*s*m.n : (f+1)*s*m.n]}
			z1b := &tensor.Matrix{Rows: s, Cols: m.h, Data: zf1.Data[f*s*m.h : (f+1)*s*m.h]}
			z2b := &tensor.Matrix{Rows: s, Cols: m.n, Data: zf2.Data[f*s*m.n : (f+1)*s*m.n]}
			runs := m.flipRuns[bit]
			if len(runs) == 0 {
				// No hidden unit sees this bit: every tail output
				// pre-activation is bitwise the base one; only the
				// flipped site's term re-branches, which the fold stage
				// reads from zb2 directly.
				for si := 0; si < s; si++ {
					copy(z2b.Row(si)[bit+1:], zb2.Row(si)[bit+1:])
				}
				continue
			}
			// Changed hidden columns, then the layer-2 tail.
			m.resumeLayer1(z1b, xb, pre.Data[bit*s*m.h:(bit+1)*s*m.h], wm1t, bit)
			for _, run := range runs {
				tensor.AddRowBiasCols(z1b, m.B1, run[0], run[1])
			}
			if bit+1 >= m.n {
				continue
			}
			k0 := runs[0][0]
			m.resumeLayer2(z2b, z1b, pre2.Data[k0*s*m.n:(k0+1)*s*m.n], wm2t, bit)
			tensor.AddRowBiasCols(z2b, m.B2, bit+1, m.n)
		}
		// Fold the tails and emit deltas.
		for r := 0; r < fr; r++ {
			f, si := r/s, r%s
			bit := flips[f]
			x := b.Row(lo + si)
			lp := p.Row(si)[bit]
			lp += condTerm(zb2.Row(si)[bit], 1-x[bit])
			zrow := zf2.Row(r)
			for j := bit + 1; j < m.n; j++ {
				lp += condTerm(zrow[j], x[j])
			}
			delta[(lo+si)*nf+f] = 0.5*lp - base[lo+si]
		}
	}
}

// resumeLayer1 recomputes, for the flip group of site bit, the hidden
// pre-activations the flip can reach (m.flipRuns[bit]) in every row of z1b:
// each element restarts from the base fold's snapshot before site bit
// (preBand, one h-wide row per sample) and re-runs the suffix of the
// accumulation chain against the flipped float rows xb — identical adds for
// every site > bit, so bitwise the fresh layer-1 fold at a fraction of its
// cost. Columns outside the runs keep the base bytes they were seeded with;
// the caller adds the bias. This loop and resumeLayer2 are ~40 % of a flip
// call and are kept out of FlipLogPsiBatch's body so that what else that
// function holds cannot reach their register allocation.
func (m *MADE) resumeLayer1(z1b, xb *tensor.Matrix, preBand []float64, wm1t *tensor.Matrix, bit int) {
	runs := m.flipRuns[bit]
	for si := 0; si < z1b.Rows; si++ {
		zrow := z1b.Row(si)
		prow := preBand[si*m.h : (si+1)*m.h]
		for _, run := range runs {
			copy(zrow[run[0]:run[1]], prow[run[0]:run[1]])
		}
		xrow := xb.Row(si)
		for i := bit; i < m.n; i++ {
			if xrow[i] != 1 {
				continue
			}
			wrow := wm1t.Row(i)
			off := 0
			if m.runsAscending {
				// Within an ascending run, input i's mask support is the
				// suffix starting i-bit units in (the rest would add exact
				// +/-0 terms).
				off = i - bit
			}
			for _, run := range runs {
				r0 := run[0] + off
				if r0 >= run[1] {
					continue
				}
				dst := zrow[r0:run[1]]
				src := wrow[r0:run[1]]
				for k := range dst {
					dst[k] += src[k]
				}
			}
		}
	}
}

// resumeLayer2 recomputes output sites j > bit of every row of z2b: each
// element's fold resumes from the base snapshot before the first hidden
// unit the flip can change (preBand2, one n-wide row per sample), then runs
// the suffix against the flip row's activations z1b, with ReLU as the same
// skip-on-nonpositive MatMulReLU uses. The caller adds the bias.
func (m *MADE) resumeLayer2(z2b, z1b *tensor.Matrix, preBand2 []float64, wm2t *tensor.Matrix, bit int) {
	k0 := m.flipRuns[bit][0][0]
	for si := 0; si < z2b.Rows; si++ {
		zrow := z2b.Row(si)[bit+1:]
		copy(zrow, preBand2[si*m.n+bit+1:(si+1)*m.n])
		arow := z1b.Row(si)
		for k := k0; k < m.h; k++ {
			av := arow[k]
			if av <= 0 {
				continue
			}
			// Unit k only feeds outputs j >= deg(k); the masked-out head of
			// the row is +/-0.
			lo2 := bit + 1
			if d := m.deg[k]; d > lo2 {
				lo2 = d
			} else if d == 0 {
				continue
			}
			if lo2 >= m.n {
				continue
			}
			wsub := wm2t.Row(k)[lo2:]
			dsub := zrow[lo2-bit-1:]
			for j, wv := range wsub {
				dsub[j] += av * wv
			}
		}
	}
}

// NewBatchAncestralSampler implements BatchAncestralBuilder with the row
// adaptor over NewIncrementalEvaluator: MADE's ancestral step has no
// cross-sample product to fuse, and walking a sample's n sites while its
// h-wide state is hot ties revisiting all B states once per site at n <= 32
// on one thread and beats it beyond, and at two workers everywhere
// (docs/ARCHITECTURE.md, "Which kernel a family keeps").
func (m *MADE) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
}

var (
	_ BatchEvaluatorBuilder = (*MADE)(nil)
	_ BatchAncestralBuilder = (*MADE)(nil)
)
