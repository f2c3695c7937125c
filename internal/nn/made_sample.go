package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// sampleChunk is how many rows of a worker's share madeLockstep walks
// together. A chunk holds at most that many groups, so its lane state is at
// most sampleChunk*h floats; 128 was measured against 64 and 256 on the
// trained Max-Cut n = 64 step, its footprint test and all-distinct batches
// (docs/ARCHITECTURE.md, "Which kernel a family keeps").
const sampleChunk = 128

// NewBatchAncestralSampler implements BatchAncestralBuilder. Where the
// four-lane kernels run (amd64 with AVX2, without the purego tag) the rows
// that share a prefix share its conditional (madeLockstep); elsewhere each
// row walks alone through NewIncrementalEvaluator, which beats the same
// walk over the Go lane forms (docs/ARCHITECTURE.md, "Which kernel a family
// keeps").
func (m *MADE) NewBatchAncestralSampler() BatchAncestralSampler {
	if !haveLanes {
		return &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
	}
	return &madeLockstep{m: m}
}

// madeLockstep samples MADE rows by prefix: at site i the rows of a chunk
// that share x_<i form one group, and the group's conditional is computed
// once for all of them. A group holds one slot of the lane layout of
// lanes_amd64.s: slot s is lane s%4 of quad s/4, whose 4h interleaved
// hidden pre-activations keep unit k of the slot at 4k+s%4. So site i's
// conditionals are one pass of cond4AVX2 over row i of W2 per quad of live
// slots, and fixing site i is one pass of add4MaskedAVX2 over row i of the
// masked layer-1 cache per quad, masked to the slots whose group drew 1.
// Every row still draws its own bit from its own uniform against its
// group's probability. A group whose rows drew both bits splits: a new slot
// takes the 1s and a copy of the parent's state from before the fix, and
// the 0s keep the parent's slot. A chunk of C rows starts as one group, so
// it splits at most C-1 times. Lanes past the last live slot compute
// values nobody reads.
//
// Exactness. A slot's state receives the very operations that each of its
// rows' lanes received in a four-row lockstep: the same adds in the same
// ascending order, a copy being no operation at all. Each lane performs its
// row's incremental-evaluator arithmetic (conditionalRow, accumulateInput)
// operation for operation, with one exception: where the scalar code skips
// a term (a unit with a <= 0 in the conditional, a row that drew 0 in the
// fix), the lane adds +0. x + (+0) is x for every x but -0, which it turns
// into +0. So the lane's sums equal the scalar ones bit for bit, except
// that a sum that is a zero may be a zero of the other sign; adding a
// nonzero term to either zero gives that term exactly, and a zero is never
// > 0, so the difference never reaches a nonzero value, a ReLU test or a
// probability (exp(-0) and exp(+0) are both exactly 1). Every probability
// is therefore the row path's, and every bit a function of the parameters
// and its row's own uniforms, whatever the worker count, the chunk and the
// other rows of the batch. TestMADELockstepMatchesRows holds the bits == to
// the row path.
type madeLockstep struct {
	m      *MADE
	shares []*lockShare // per worker
}

// lockShare is one worker's walk state over a chunk.
type lockShare struct {
	z    []float64   // the slots' interleaved pre-activations, 4h per quad
	rows []int       // the chunk's rows, each group's a contiguous run
	seg  [][2]int    // slot s's group is rows[seg[s][0]:seg[s][1]]
	p    []float64   // slot s's conditional at the current site
	mask [][4]uint64 // per quad: the slots whose group drew 1
	done int64       // rows completed
}

// Sample implements BatchAncestralSampler.
func (a *madeLockstep) Sample(b ConfigBatch, u []float64, workers int) {
	m := a.m
	checkAncestral(m.n, b, u)
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	for len(a.shares) < workers {
		a.shares = append(a.shares, &lockShare{})
	}
	wm1t, _ := m.maskedWeights()
	forRows(b.N, workers, func(w, lo, hi int) {
		s := a.shares[w]
		for c := lo; c < hi; c += sampleChunk {
			s.walk(m, wm1t, b, u, c, min(c+sampleChunk, hi))
		}
	})
}

// walk samples rows [lo, hi), one chunk, site by site.
func (s *lockShare) walk(m *MADE, wm1t *tensor.Matrix, b ConfigBatch, u []float64, lo, hi int) {
	n, h, rows := m.n, m.h, hi-lo
	if quads := (rows + 3) / 4; len(s.mask) < quads {
		s.z = make([]float64, 4*h*quads)
		s.rows = make([]int, 4*quads)
		s.p = make([]float64, 4*quads)
		s.mask = make([][4]uint64, quads)
	}
	z := s.z
	for k, bk := range m.B1 {
		z[4*k] = bk
	}
	for j := range rows {
		s.rows[j] = lo + j
	}
	s.seg = append(s.seg[:0], [2]int{0, rows})
	for i := 0; i < n; i++ {
		live := len(s.seg)
		bi, wrow := m.B2[i], m.W2.Row(i)
		for q := 0; 4*q < live; q++ {
			zi := [4]float64{bi, bi, bi, bi}
			zq := z[4*h*q:]
			for _, run := range m.outRuns[i] {
				cond4AVX2(&zi, wrow[run[0]:run[1]], zq[4*run[0]:4*run[1]])
			}
			for l, zl := range zi[:min(4, live-4*q)] {
				s.p[4*q+l] = 1 / (1 + math.Exp(-zl))
			}
		}
		for g := range live {
			p, g0, g1 := s.p[g], s.seg[g][0], s.seg[g][1]
			// Partition the group: its 0s stay in front, its 1s move to
			// rs[k:].
			rs, k := s.rows[g0:g1], g1-g0
			for j := 0; j < k; {
				r := rs[j]
				if u[r*n+i] < p {
					b.Bits[r*n+i] = 1
					k--
					rs[j], rs[k] = rs[k], r
				} else {
					b.Bits[r*n+i] = 0
					j++
				}
			}
			switch {
			case k == 0:
				s.fix(g)
			case k < len(rs):
				t := len(s.seg)
				s.seg[g][1] = g0 + k
				s.seg = append(s.seg, [2]int{g0 + k, g1})
				cloneSlot(z, h, g, t)
				s.fix(t)
			}
		}
		wrow = wm1t.Row(i)
		for q := 0; 4*q < len(s.seg); q++ {
			if s.mask[q] == [4]uint64{} {
				continue
			}
			zq := z[4*h*q:]
			for _, run := range m.flipRuns[i] {
				add4MaskedAVX2(zq[4*run[0]:4*run[1]], wrow[run[0]:run[1]], &s.mask[q])
			}
			s.mask[q] = [4]uint64{}
		}
	}
	s.done += int64(rows)
}

// fix marks slot t's group as having drawn 1 at the current site.
func (s *lockShare) fix(t int) { s.mask[t/4][t%4] = math.MaxUint64 }

// cloneSlot copies slot from's h pre-activations into slot to.
func cloneSlot(z []float64, h, from, to int) {
	src, dst := z[4*h*(from/4)+from%4:], z[4*h*(to/4)+to%4:]
	for k := range h {
		dst[4*k] = src[4*k]
	}
}

// ForwardPasses implements BatchAncestralSampler: one pass per completed
// row, as the incremental evaluator charges.
func (a *madeLockstep) ForwardPasses() int64 {
	var passes int64
	for _, s := range a.shares {
		passes += s.done
	}
	return passes
}
