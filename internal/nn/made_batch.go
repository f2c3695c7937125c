package nn

import (
	"math"
	"math/bits"

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
	// The weighted backward's state, shared by every evaluator of one
	// NewBatchEvaluator call, and this evaluator's own scratch for it: the
	// block partial part (d, allocated at its first block, +0 between
	// blocks), live, the units one row's hidden deltas are taken for, and
	// xrow, the float row the W1 leg reads.
	st      *madeGradState
	part    tensor.Vector
	touched []uint64 // the units the block partial holds

	live []int
	xrow tensor.Vector
}

// madeGradState is what the weighted backward keeps per distinct row, in
// rows of three matrices and a bit set: the hidden pre-activations z1, the
// output deltas dz2 = x - sigma(z2), the hidden deltas da (set for the
// units the backward reads; see MADE.hiddenDeltas) and live, those units
// as a bit set of liveWords(h) words per row (MADE.liveMask). None depends
// on a row's weight, so a row that occurs c times in a batch is computed
// once and read c times. It takes O(B' (n + h)) memory for B' distinct
// rows; the float rows are not kept, as rebuilding one from its bits costs
// n conversions.
type madeGradState struct {
	bufZ1, bufDZ2, bufDA []float64
	z1, dz2, da          *tensor.Matrix
	live                 []uint64
}

// fillSlabRows is how many distinct rows fillWeighted runs through the
// forward at a time: its float rows live in the evaluator's slab workspace,
// so the workspace does not grow with B'.
const fillSlabRows = 128

// NewBatchEvaluator implements BatchEvaluatorBuilder: one GEMM evaluator per
// worker behind splitRows, all sharing one weighted-backward state. workers
// bounds the fan-out (<= 0 means GOMAXPROCS) and does not affect any output
// value. The evaluator is not safe for concurrent use.
func (m *MADE) NewBatchEvaluator(workers int) BatchEvaluator {
	st := new(madeGradState)
	return splitRows(m, workers, func() blockEvaluator {
		return &madeBatchEvaluator{m: m, dz2: tensor.NewVector(m.n), da: tensor.NewVector(m.h),
			needSnap: make([]bool, m.h), needPre: make([]bool, m.n),
			st: st, live: make([]int, 0, m.h), xrow: tensor.NewVector(m.n)}
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

// forwardSlab runs the dense two-GEMM forward for rows [lo, hi) of b in the
// evaluator's slab workspaces, returning the xf/z1/a/z2 views (z1 is the
// pre-activation, a the ReLU activation, materialized only when needPre).
func (e *madeBatchEvaluator) forwardSlab(b ConfigBatch, lo, hi int, needPre bool) (xf, z1, a, z2 *tensor.Matrix) {
	m := e.m
	rows := hi - lo
	xf = growMat(&e.bufXF, rows, m.n)
	z1 = growMat(&e.bufZ1, rows, m.h)
	z2 = growMat(&e.bufZ2, rows, m.n)
	a = z1
	if needPre {
		// The backward pass needs the activation alongside the ReLU gate.
		a = growMat(&e.bufA, rows, m.h)
	}
	m.forwardRows(b, lo, xf, z1, a, z2)
	return xf, z1, a, z2
}

// forwardRows runs the dense two-GEMM forward for the xf.Rows rows of b
// from row lo on. With a distinct from z1 the activation is materialized
// (the scalar forward's copy+ReLU); with a == z1 the fused MatMulReLU
// consumes the pre-activation directly. The arithmetic per row is exactly
// MADE.forward's.
func (m *MADE) forwardRows(b ConfigBatch, lo int, xf, z1, a, z2 *tensor.Matrix) {
	wm1t, wm2t := m.maskedWeights()
	toFloats(b, lo, lo+xf.Rows, xf)
	tensor.MatMul(z1, xf, wm1t, 1)
	tensor.AddRowBias(z1, m.B1)
	if a != z1 {
		copy(a.Data, z1.Data)
		tensor.ReLU(a.Data)
	}
	tensor.MatMulReLU(z2, a, wm2t, 1)
	tensor.AddRowBias(z2, m.B2)
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
// backward, which writes no O-row. What does not depend on a row's weight
// runs once per distinct row (fillWeighted); then every GradBlockRows block
// of batch rows accumulates w_k * O_k into a d-sized partial that starts at
// +0 (addWeightedBlock), and the partial is added to dst
// (foldWeightedBlock).
func (e *madeBatchEvaluator) AddWeightedGrad(b ConfigBatch, of []int, w []float64, dst tensor.Vector) {
	checkAddWeightedGrad(e.m.n, e.m.NumParams(), b, of, w, dst)
	addWeightedGrad(e, b, of, w, dst)
}

// prepareWeighted implements blockEvaluator: it sizes the shared state for
// rows distinct rows.
func (e *madeBatchEvaluator) prepareWeighted(rows int) {
	m, st := e.m, e.st
	st.z1 = growMat(&st.bufZ1, rows, m.h)
	st.dz2 = growMat(&st.bufDZ2, rows, m.n)
	st.da = growMat(&st.bufDA, rows, m.h)
	if need := rows * liveWords(m.h); cap(st.live) < need {
		st.live = make([]uint64, need)
	}
}

// fillWeighted implements blockEvaluator: the forward of rows [lo, hi) of
// b as the two GEMMs of LogPsiBatch, fillSlabRows rows at a time, with dZ2
// overwriting the output pre-activations, then each row's hidden deltas.
// The activation is not materialized: the backward reads a_k only where
// z1_k > 0, and there a_k is z1_k.
func (e *madeBatchEvaluator) fillWeighted(b ConfigBatch, lo, hi int) {
	m, st := e.m, e.st
	_, wm2t := m.maskedWeights()
	for s0 := lo; s0 < hi; s0 += fillSlabRows {
		s1 := min(s0+fillSlabRows, hi)
		view := func(x *tensor.Matrix) *tensor.Matrix {
			return &tensor.Matrix{Rows: s1 - s0, Cols: x.Cols, Data: x.Data[s0*x.Cols : s1*x.Cols]}
		}
		xf, z1, dz2, da := growMat(&e.bufXF, s1-s0, m.n), view(st.z1), view(st.dz2), view(st.da)
		m.forwardRows(b, s0, xf, z1, z1, dz2)
		for i, x := range xf.Data { // dlogpi/dz2_j = x_j - sigma(z2_j), in place
			dz2.Data[i] = x - 1/(1+math.Exp(-dz2.Data[i]))
		}
		lw := liveWords(m.h)
		for r := range s1 - s0 {
			mask := st.live[(s0+r)*lw : (s0+r+1)*lw]
			m.liveMask(mask, z1.Row(r))
			e.live = liveUnits(e.live, mask)
			m.hiddenDeltas(da.Row(r), dz2.Row(r), wm2t, e.live)
		}
	}
}

// addWeightedBlock implements blockEvaluator: batch rows [k0, k1) in
// ascending order into the block partial, each reading the state of its
// distinct row of[k]. The partial is all +0 between blocks, and a row
// writes only b1, b2 and its live units' W1 and W2 entries, so touched,
// the union of the block's live sets, names every element it can hold
// other than +0.
func (e *madeBatchEvaluator) addWeightedBlock(b ConfigBatch, of []int, w []float64, k0, k1 int) {
	m, st := e.m, e.st
	if e.part == nil {
		e.part = tensor.NewVector(m.NumParams())
		e.touched = make([]uint64, liveWords(m.h))
	}
	lw := len(e.touched)
	clear(e.touched)
	for k := k0; k < k1; k++ {
		c := k
		if of != nil {
			c = of[k]
		}
		for i, bit := range b.Row(c) {
			e.xrow[i] = float64(bit)
		}
		live := st.live[c*lw : (c+1)*lw]
		for i, word := range live {
			e.touched[i] |= word
		}
		m.addWeightedRow(e.part, w[k], e.xrow, st.z1.Row(c), st.dz2.Row(c), st.da.Row(c), live)
	}
}

// foldWeightedBlock implements blockEvaluator: the first fold of a call
// adds every element (dst may hold a -0), a later one only the touched
// elements, the others adding +0 to a dst that no longer holds a -0. Then
// it clears what the block wrote.
func (e *madeBatchEvaluator) foldWeightedBlock(dst tensor.Vector, first bool) {
	if first {
		e.m.foldWeightedPartial(dst, e.part)
	} else {
		e.m.foldTouched(dst, e.part, e.touched)
	}
	e.m.clearTouched(e.part, e.touched)
}

// liveWords is the words of a bit set over h hidden units.
func liveWords(h int) int { return (h + 63) / 64 }

// liveMask sets bit k of mask (word k/64, bit k%64), and clears every
// other, for each unit the weighted backward reads: z1_k > 0 and
// deg(k) > 0, the latter false only at n = 1, where no unit is wired. The
// test is a conditional move rather than a branch: which units are live
// follows no pattern a predictor could learn.
func (m *MADE) liveMask(mask []uint64, z1 tensor.Vector) {
	clear(mask)
	if m.n == 1 {
		return
	}
	for k, z := range z1 {
		var bit uint64
		if z > 0 {
			bit = 1
		}
		mask[k>>6] |= bit << (k & 63)
	}
}

// liveUnits returns the units of mask in ascending order, in live's
// storage.
func liveUnits(live []int, mask []uint64) []int {
	live = live[:0]
	for wi, word := range mask {
		for ; word != 0; word &= word - 1 {
			live = append(live, wi<<6+bits.TrailingZeros64(word))
		}
	}
	return live
}

// hiddenDeltas sets da[k] = sum_{j >= deg(k)} W2[j][k] * dz2_j, j ascending
// from +0, one rounded product and one add per term, for every unit k in
// live (ascending, each with deg(k) > 0). That is gradFromForward's chain:
// the terms it skips (dz2_j = 0) are +/-0 on a sum from +0, which an add
// leaves unchanged. Four units run in lockstep, each on its own
// accumulator, so the adds are four chains rather than one latency-bound
// one. A quad starts at its smallest degree: a unit's terms below its own
// degree have masked weights, +0, whose +/-0 products leave its sum at the
// +0 it started from.
func (m *MADE) hiddenDeltas(da, dz2 tensor.Vector, wm2t *tensor.Matrix, live []int) {
	n := m.n
	q := 0
	for ; q+4 <= len(live); q += 4 {
		k0, k1, k2, k3 := live[q], live[q+1], live[q+2], live[q+3]
		j0 := min(m.deg[k0], m.deg[k1], m.deg[k2], m.deg[k3])
		zs := dz2[j0:]
		// [:len(zs)] restates the lengths so the inner bounds checks drop.
		w0 := wm2t.Data[k0*n+j0 : (k0+1)*n][:len(zs)]
		w1 := wm2t.Data[k1*n+j0 : (k1+1)*n][:len(zs)]
		w2 := wm2t.Data[k2*n+j0 : (k2+1)*n][:len(zs)]
		w3 := wm2t.Data[k3*n+j0 : (k3+1)*n][:len(zs)]
		var s0, s1, s2, s3 float64
		for j, dj := range zs {
			s0 += float64(w0[j] * dj)
			s1 += float64(w1[j] * dj)
			s2 += float64(w2[j] * dj)
			s3 += float64(w3[j] * dj)
		}
		da[k0], da[k1], da[k2], da[k3] = s0, s1, s2, s3
	}
	for _, k := range live[q:] {
		dk := m.deg[k]
		zs := dz2[dk:]
		ws := wm2t.Data[k*n+dk : (k+1)*n][:len(zs)]
		var s float64
		for j, dj := range zs {
			s += float64(ws[j] * dj)
		}
		da[k] = s
	}
}

// addWeightedRow adds w * O to the block partial part, O being the row
// gradFromForward + Scale(0.5) writes for the float-encoded configuration xf
// with hidden pre-activations z1, output deltas dz2, hidden deltas da and
// live units live (liveMask's bit set). Every term keeps the reference's
// rounding points — the element 0.5 * g first, then the product with w,
// then one add — and a term is left out only where g is a zero the
// reference stores: a unit outside live (ReLU-inactive, z1_k <= 0: a_k and
// dz1_k are zeros, so its whole W1 row, b1 entry and W2 column are; or, at
// n = 1, wired to nothing) and a masked-out weight. Then w * (0.5 * g) is
// +/-0 and the partial, which is never -0, does not see it; for the same
// reason an unset input bit may stay in the W1 loop as the exact product
// c * 0. part is laid out like theta except that the W2 block is
// TRANSPOSED (h x n): unit k's masked-in outputs j >= deg(k) are then one
// contiguous run against dz2, which addW2Row updates with g = dz2_j * a_k.
func (m *MADE) addWeightedRow(part tensor.Vector, w float64, xf, z1, dz2, da tensor.Vector, live []uint64) {
	h, n := m.h, m.n
	gW1, gB1 := part[:h*n], part[h*n:h*n+h]
	gW2T, gB2 := part[h*n+h:h*n+h+n*h], part[h*n+h+n*h:]
	for j, dj := range dz2 {
		gB2[j] += float64(w * (0.5 * dj))
	}
	for wi, word := range live {
		for ; word != 0; word &= word - 1 {
			k := wi<<6 + bits.TrailingZeros64(word)
			dk := m.deg[k] // unit k sees inputs i < dk and feeds outputs j >= dk
			addW2Row(gW2T[k*n+dk:(k+1)*n], dz2[dk:], z1[k], w)
			c := float64(w * (0.5 * da[k]))
			gB1[k] += c
			gW1[k*n:k*n+dk].AXPY(c, xf[:dk])
		}
	}
}

// w2Crossover is the run length from which addW2Row takes the AVX2 kernel:
// below it the call into assembly (which cannot inline) costs more than
// the lanes save. It is internal/tensor's row-kernel crossover, measured
// the same way (BenchmarkAddW2Row).
const w2Crossover = 8

// addW2Row computes d[j] += w*(0.5*(dz2[j]*ak)) for j < len(dz2), the W2
// leg of addWeightedRow: on the AVX2 kernel of lanes_amd64.s from
// w2Crossover elements up where it runs, and on the Go loop addW2Go
// otherwise. Both give each element three rounded products and one
// rounded add in that order, so they agree in every bit.
func addW2Row(d, dz2 []float64, ak, w float64) {
	if haveLanes && len(dz2) >= w2Crossover {
		addW2AVX2(d[:len(dz2)], dz2, ak, w)
		return
	}
	addW2Go(d, dz2, ak, w)
}

// addW2Go is addW2Row's Go loop: the fallback below the crossover and off
// the assembly, and the reference the kernel is tested against. Each
// product is spelled float64(x*y), so no target fuses it into the add.
func addW2Go(d, dz2 []float64, ak, w float64) {
	d = d[:len(dz2)]
	for j, dj := range dz2 {
		d[j] += float64(w * float64(0.5*float64(dj*ak)))
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

// foldTouched is foldWeightedPartial over the elements a block with live
// units touched can have written: b1, b2, and the W1 and W2 entries of
// those units a row writes (inputs i < deg(k), outputs j >= deg(k)). dst
// must hold no -0, so that the +0 adds it leaves out change nothing.
func (m *MADE) foldTouched(dst, part tensor.Vector, touched []uint64) {
	h, n := m.h, m.n
	o2 := h*n + h
	dst[h*n : o2].Add(part[h*n : o2])
	dst[o2+n*h:].Add(part[o2+n*h:])
	gW2, gW2T := dst[o2:o2+n*h], part[o2:o2+n*h]
	for wi, word := range touched {
		for ; word != 0; word &= word - 1 {
			k := wi<<6 + bits.TrailingZeros64(word)
			dk := m.deg[k]
			dst[k*n : k*n+dk].Add(part[k*n : k*n+dk])
			for j, g := range gW2T[k*n+dk : (k+1)*n] {
				gW2[(dk+j)*h+k] += g
			}
		}
	}
}

// clearTouched sets back to +0 every element of a block partial that
// foldTouched reads.
func (m *MADE) clearTouched(part tensor.Vector, touched []uint64) {
	h, n := m.h, m.n
	o2 := h*n + h
	clear(part[h*n : o2])
	clear(part[o2+n*h:])
	for wi, word := range touched {
		for ; word != 0; word &= word - 1 {
			k := wi<<6 + bits.TrailingZeros64(word)
			dk := m.deg[k]
			clear(part[k*n : k*n+dk])
			clear(part[o2+k*n+dk : o2+(k+1)*n])
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
				// Input i's support is exactly flipRuns[i] (units of degree
				// > i); the masked-out weights are +0, so adding only the
				// support, as the ancestral sampler does, is bitwise
				// MatMul's full-row add.
				for si := 0; si < s; si++ {
					if xfb.Row(si)[i] == 1 {
						m.accumulateInput(zb1.Row(si), wm1t, i, 1)
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
							dsub[j] += float64(av * wv)
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
			delta[(lo+si)*nf+f] = float64(0.5*lp) - base[lo+si]
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
				zrow[r0:run[1]].Add(wrow[r0:run[1]])
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
			zrow[lo2-bit-1:].AXPY(av, wm2t.Row(k)[lo2:])
		}
	}
}

var (
	_ BatchEvaluatorBuilder = (*MADE)(nil)
	_ BatchAncestralBuilder = (*MADE)(nil)
)
