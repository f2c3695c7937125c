package nn

import "github.com/vqmc-scale/parvqmc/internal/tensor"

// rbmBatchEvaluator is the RBM's BatchEvaluator: the per-sample hidden
// pre-activation MulVec (theta = W s + c) of a whole batch is fused into
// one blocked GEMM against the cached transposed weights (theta = S W^T,
// see RBM.weightsT), then the per-row reductions — the ln-cosh log-psi
// fold, the closed-form gradient, and the O(h) flip delta — run the exact
// scalar code (logPsiFromTheta / gradFromTheta / flipDelta) on the GEMM
// rows. All values are bitwise identical to the scalar paths; see the
// BatchEvaluator contract.
//
// Spins never vanish (s_i = +/-1), so the GEMM's zero-skip never fires and
// every element accumulates the same ascending-j product chain MulVec runs.
type rbmBatchEvaluator struct {
	m *RBM
	// Slab workspaces, grown on demand and reused across calls: bufS holds
	// the float spin rows, bufTh the hidden pre-activation rows.
	bufS, bufTh []float64
	// AddWeightedGrad: one theta GEMM and the closed-form gradient per
	// block of rows.
	blockGrad
}

// NewBatchEvaluator implements BatchEvaluatorBuilder for the RBM: one GEMM
// evaluator per worker behind splitRows. workers bounds the fan-out (<= 0
// means GOMAXPROCS) and does not affect any output value. The evaluator is
// not safe for concurrent use.
func (m *RBM) NewBatchEvaluator(workers int) BatchEvaluator {
	return splitRows(m, workers, func() blockEvaluator {
		e := &rbmBatchEvaluator{m: m}
		e.blockGrad = blockGrad{ev: e, wf: m}
		return e
	})
}

// thetaSlab converts rows [lo, hi) of b to spins and runs the fused
// theta = S W^T + c forward, returning the spin and pre-activation slabs.
func (e *rbmBatchEvaluator) thetaSlab(b ConfigBatch, lo, hi int) (sp, th *tensor.Matrix) {
	m := e.m
	rows := hi - lo
	wt := m.weightsT()
	sp = growMat(&e.bufS, rows, m.n)
	th = growMat(&e.bufTh, rows, m.h)
	for r := 0; r < rows; r++ {
		row := sp.Row(r)
		for i, bit := range b.Row(lo + r) {
			row[i] = float64(1 - 2*bit)
		}
	}
	tensor.MatMul(th, sp, wt, 1)
	tensor.AddRowBias(th, m.C)
	return sp, th
}

// LogPsiBatch implements BatchEvaluator; out[k] matches LogPsi(row k)
// bitwise.
func (e *rbmBatchEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	m := e.m
	checkLogPsiBatch(m.n, b, out)
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		sp, th := e.thetaSlab(b, lo, hi)
		for r := 0; r < hi-lo; r++ {
			out[lo+r] = m.logPsiFromTheta(sp.Row(r), th.Row(r))
		}
	}
}

// GradLogPsiBatch implements BatchEvaluator: one fused theta GEMM per slab,
// then the shared closed-form gradient fills each ows row.
func (e *rbmBatchEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	m := e.m
	checkGradLogPsiBatch(m.n, m.NumParams(), b, ows)
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		sp, th := e.thetaSlab(b, lo, hi)
		for r := 0; r < hi-lo; r++ {
			m.gradFromTheta(sp.Row(r), th.Row(r), ows.Sample(lo+r))
		}
	}
}

// FlipLogPsiBatch implements BatchEvaluator: base[k] is the flip cache's
// base log psi (logPsiFromTheta over the GEMM rows) and delta[k*F+f] is the
// shared O(h) incremental flipDelta — both bitwise the scalar FlipCache's
// values, so core.LocalEnergies is interchangeable between the paths. The
// deltas never read the base, so a nil base skips the per-row ln-cosh fold
// entirely (the local-energy hot path).
func (e *rbmBatchEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	m := e.m
	nf := len(flips)
	checkFlipLogPsiBatch(m.n, b, flips, base, delta)
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		sp, th := e.thetaSlab(b, lo, hi)
		for r := 0; r < hi-lo; r++ {
			srow, throw := sp.Row(r), th.Row(r)
			if base != nil {
				base[lo+r] = m.logPsiFromTheta(srow, throw)
			}
			drow := delta[(lo+r)*nf : (lo+r+1)*nf]
			for f, bit := range flips {
				drow[f] = m.flipDelta(srow, throw, bit)
			}
		}
	}
}

var _ BatchEvaluatorBuilder = (*RBM)(nil)
