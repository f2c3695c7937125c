package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
)

// NewBatchAncestralSampler implements BatchAncestralBuilder. Where the
// four-lane kernels run (amd64 with AVX2, without the purego tag) rows walk
// their n sites four at a time in lockstep (madeLockstep); elsewhere each
// row walks alone through NewIncrementalEvaluator. Walking a sample's n
// sites while its h-wide state is hot ties revisiting all B states once per
// site at n <= 32 on one thread and beats it beyond, and at two workers
// everywhere (docs/ARCHITECTURE.md, "Which kernel a family keeps"); a group
// of four keeps that locality, four states being 4h floats.
func (m *MADE) NewBatchAncestralSampler() BatchAncestralSampler {
	rows := &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
	if !haveLanes {
		return rows
	}
	return &madeLockstep{m: m, rows: rows}
}

// madeLockstep samples MADE rows in groups of four, lane r of every vector
// holding row r: the hidden pre-activations of the four rows are kept
// interleaved (unit k of row r at 4k+r), so site i's conditional is one
// pass of cond4AVX2 over row i of W2, four dot products advancing together,
// and fixing site i is one pass of add4MaskedAVX2 over row i of the masked
// layer-1 cache, masked to the rows that drew a 1. The 1-3 rows of a share
// past its last whole group take the row path.
//
// Exactness. Each lane performs its row's incremental-evaluator arithmetic
// (conditionalRow, accumulateInput) operation for operation, in the same
// ascending order, with one exception: where the scalar code skips a term
// (a unit with a <= 0 in the conditional, a row that drew 0 in the fix),
// the lane adds +0. x + (+0) is x for every x but -0, which it turns into
// +0. So the lane's sums equal the scalar ones bit for bit, except that a
// sum that is a zero may be a zero of the other sign; adding a nonzero term
// to either zero gives that term exactly, and a zero is never > 0, so the
// difference never reaches a nonzero value, a ReLU test or a probability
// (exp(-0) and exp(+0) are both exactly 1). Every sampled bit and every
// probability is therefore the row path's. TestMADELockstepMatchesRows
// holds the bits == to the row path.
type madeLockstep struct {
	m     *MADE
	rows  *rowAncestral // the leftover rows, and its evaluators' pass counts
	lanes [][]float64   // per worker: the group's 4h interleaved pre-activations
	quads []int64       // per worker: rows completed in lockstep
}

// Sample implements BatchAncestralSampler.
func (a *madeLockstep) Sample(b ConfigBatch, u []float64, workers int) {
	m, n := a.m, a.m.n
	checkAncestral(n, b, u)
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	for len(a.rows.evals) < workers {
		a.rows.evals = append(a.rows.evals, a.rows.newEval())
		a.lanes = append(a.lanes, make([]float64, 4*m.h))
		a.quads = append(a.quads, 0)
	}
	wm1t, _ := m.maskedWeights()
	forRows(b.N, workers, func(w, lo, hi int) {
		z := a.lanes[w]
		r := lo
		for ; r+4 <= hi; r += 4 {
			for k, bk := range m.B1 {
				z[4*k], z[4*k+1], z[4*k+2], z[4*k+3] = bk, bk, bk, bk
			}
			for i := 0; i < n; i++ {
				bi := m.B2[i]
				zi := [4]float64{bi, bi, bi, bi}
				wrow := m.W2.Row(i)
				for _, run := range m.outRuns[i] {
					cond4AVX2(&zi, wrow[run[0]:run[1]], z[4*run[0]:4*run[1]])
				}
				var mask [4]uint64
				drew := false
				for l, zl := range zi {
					bit := 0
					if u[(r+l)*n+i] < 1/(1+math.Exp(-zl)) {
						bit, mask[l], drew = 1, math.MaxUint64, true
					}
					b.Bits[(r+l)*n+i] = bit
				}
				if !drew {
					continue
				}
				wrow = wm1t.Row(i)
				for _, run := range m.flipRuns[i] {
					add4MaskedAVX2(z[4*run[0]:4*run[1]], wrow[run[0]:run[1]], &mask)
				}
			}
			a.quads[w] += 4
		}
		for ; r < hi; r++ {
			drawRow(a.rows.evals[w], b.Row(r), u[r*n:(r+1)*n])
		}
	})
}

// ForwardPasses implements BatchAncestralSampler: one pass per completed
// row, as the incremental evaluator charges.
func (a *madeLockstep) ForwardPasses() int64 {
	passes := a.rows.ForwardPasses()
	for _, q := range a.quads {
		passes += q
	}
	return passes
}
