package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// rnnBatchEvaluator is the RNN's BatchEvaluator. The recurrence is
// site-major by construction, so the batched path keeps the whole slab's
// B x h hidden state resident and fuses each step's Wh matvecs into one
// B-row GEMM against Wh (tensor.MatMulT accumulates each element over the
// hidden index in the exact ascending order MulVec uses), finishing the
// step with the scalar stepActivate per row — shared verbatim with the
// scalar path, so the states are bitwise identical. The per-site output
// dots V . s batch the same way against a 1 x h matrix view of V (no
// transposed caches needed: both operands alias theta directly). All values
// are bitwise identical to the scalar paths; see the BatchEvaluator
// contract.
type rnnBatchEvaluator struct {
	m       *RNNWavefunction
	workers int
	// fullFlip disables the tail-only flip evaluation and replays every flip
	// row's recurrence from s_0 with a full log-probability fold — the
	// differential-test oracle. Outputs are bitwise identical to the
	// tail-only path (the tail resume is an exact suffix of the full fold).
	fullFlip bool
	// Slab workspaces, grown on demand and reused across calls: bufS/bufPre
	// back the base recurrence (hidden states and step pre-activations),
	// bufZc the per-site output-dot column, bufZ the recorded base
	// pre-activations, bufP the per-row log-probability prefix sums, bufSnap
	// the per-site hidden-state snapshots the tail-only flip groups resume
	// from, bufSf/bufLp the flip-group states and folds, and bufBase stages
	// the base log-psi when the caller passes nil.
	bufS, bufPre, bufZc []float64
	bufZ, bufP, bufSnap []float64
	bufSf, bufLp        []float64
	bufBase             []float64
	grads               []GradEvaluator // per-worker scalar backward
	needSnap            []bool          // per-call flip marks over sites
}

// NewBatchEvaluator implements BatchEvaluatorBuilder. workers bounds the
// internal fan-out (<= 0 means GOMAXPROCS) and does not affect any output
// value. The evaluator is not safe for concurrent use.
func (m *RNNWavefunction) NewBatchEvaluator(workers int) BatchEvaluator {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	return &rnnBatchEvaluator{m: m, workers: workers,
		grads: newGradEvaluators(m, workers), needSnap: make([]bool, m.n)}
}

// NewFullFlipBatchEvaluator implements FullFlipBatchEvaluatorBuilder: a
// BatchEvaluator whose FlipLogPsiBatch replays every flip row's recurrence
// from s_0 instead of resuming from the per-site state snapshots. Bitwise
// identical to NewBatchEvaluator — the differential-testing oracle and A/B
// perf baseline for the tail-only path.
func (m *RNNWavefunction) NewFullFlipBatchEvaluator(workers int) BatchEvaluator {
	e := m.NewBatchEvaluator(workers).(*rnnBatchEvaluator)
	e.fullFlip = true
	return e
}

// vMat views the output projection V as a 1 x h matrix (aliasing theta, so
// it is always current — no InvalidateParams bookkeeping needed).
func (e *rnnBatchEvaluator) vMat() *tensor.Matrix {
	return &tensor.Matrix{Rows: 1, Cols: e.m.h, Data: e.m.V}
}

// initRows fills rows [0, s) of st with the initial hidden state s_0.
func (e *rnnBatchEvaluator) initRows(st *tensor.Matrix, s int) {
	m := e.m
	parallel.For(s, e.workers, func(lo, hi int) {
		for si := lo; si < hi; si++ {
			copy(st.Row(si), m.S0)
		}
	})
}

// LogPsiBatch implements BatchEvaluator; out[k] matches LogPsi(row k)
// bitwise.
func (e *rnnBatchEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	m := e.m
	checkLogPsiBatch(m.n, b, out)
	vmat := e.vMat()
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		s := hi - lo
		st := growMat(&e.bufS, s, m.h)
		pre := growMat(&e.bufPre, s, m.h)
		zc := growMat(&e.bufZc, s, 1)
		e.initRows(st, s)
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				out[lo+si] = 0
			}
		})
		for i := 0; i < m.n; i++ {
			// Both GEMMs read the pre-step states; the row loop then folds
			// site i's term and (except at the last site) activates the step.
			tensor.MatMulT(zc, st, vmat, e.workers)
			if i < m.n-1 {
				tensor.MatMulT(pre, st, m.Wh, e.workers)
			}
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					bit := b.Row(lo + si)[i]
					out[lo+si] += condTerm(zc.Data[si]+m.Bout[i], bit)
					if i < m.n-1 {
						m.stepActivate(st.Row(si), pre.Row(si), bit)
					}
				}
			})
		}
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				out[lo+si] *= 0.5
			}
		})
	}
}

// GradLogPsiBatch implements BatchEvaluator through the shared per-row
// scalar backward (gradRows): BPTT records per-sample states, so there is
// no cross-row GEMM to fuse.
func (e *rnnBatchEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	gradRows(e.m, e.grads, b, ows)
}

// FlipLogPsiBatch implements BatchEvaluator under the tail-only flip
// convention. The base pass runs the recurrence once per slab, recording
// every site's output pre-activation, the per-row log-probability prefix
// sums, and (for flipped sites) the B x h hidden-state snapshot s_b the
// site's conditional reads. Each flip group then re-branches the flipped
// site on the UNCHANGED base pre-activation — a flip of bit b cannot touch
// s_i for i <= b — restarts the recurrence from the snapshot consuming the
// flipped bit, and re-runs only the O((n-b) h^2) tail as B-row GEMMs
// against Wh, resuming each row's fold from its recorded prefix. Flipped
// log-psi values are bitwise identical to a fresh LogPsi of the flipped
// configuration, and the emitted deltas subtract the base exactly as the
// scalar FlipCache.Delta does.
func (e *rnnBatchEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	m := e.m
	nf := len(flips)
	checkFlipLogPsiBatch(m.n, b, flips, base, delta)
	if base == nil {
		// The RNN's deltas subtract the base log-psi, and the prefix fold
		// computes it as a byproduct — stage it in a reusable buffer.
		if cap(e.bufBase) < b.N {
			e.bufBase = make([]float64, b.N)
		}
		base = e.bufBase[:b.N]
	}
	vmat := e.vMat()
	needSnap := e.needSnap
	clear(needSnap)
	for _, bit := range flips {
		needSnap[bit] = true
	}
	slab := batchSlabRows / (nf + 1)
	if slab < 1 {
		slab = 1
	}
	for lo := 0; lo < b.N; lo += slab {
		hi := lo + slab
		if hi > b.N {
			hi = b.N
		}
		s := hi - lo
		st := growMat(&e.bufS, s, m.h)
		pre := growMat(&e.bufPre, s, m.h)
		zc := growMat(&e.bufZc, s, 1)
		z := growMat(&e.bufZ, s, m.n)
		p := growMat(&e.bufP, s, m.n+1)
		var snap *tensor.Matrix
		if !e.fullFlip && nf > 0 {
			snap = growMat(&e.bufSnap, m.n*s, m.h)
		}
		// Base recurrence, recording z, prefix sums, and snapshot bands.
		e.initRows(st, s)
		for i := 0; i < m.n; i++ {
			if snap != nil && needSnap[i] {
				copy(snap.Data[i*s*m.h:(i+1)*s*m.h], st.Data[:s*m.h])
			}
			tensor.MatMulT(zc, st, vmat, e.workers)
			if i < m.n-1 {
				tensor.MatMulT(pre, st, m.Wh, e.workers)
			}
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					prow := p.Row(si)
					if i == 0 {
						prow[0] = 0
					}
					bit := b.Row(lo + si)[i]
					zv := zc.Data[si] + m.Bout[i]
					z.Row(si)[i] = zv
					prow[i+1] = prow[i] + condTerm(zv, bit)
					if i < m.n-1 {
						m.stepActivate(st.Row(si), pre.Row(si), bit)
					}
				}
			})
		}
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				base[lo+si] = 0.5 * p.Row(si)[m.n]
			}
		})
		if nf == 0 {
			continue
		}
		sf := growMat(&e.bufSf, s, m.h)
		lpf := growMat(&e.bufLp, s, 1)
		for f, bit := range flips {
			j0 := bit + 1
			if e.fullFlip {
				// Oracle: replay the whole recurrence from s_0 with the
				// flipped bit substituted at its site.
				e.initRows(sf, s)
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						lpf.Data[si] = 0
					}
				})
				j0 = 0
			} else {
				// Tail-only: re-branch site bit on the unchanged base
				// pre-activation, restart the recurrence from the recorded
				// s_bit snapshot consuming the flipped bit, resume the fold
				// from the recorded prefix.
				snapBand := snap.Data[bit*s*m.h : (bit+1)*s*m.h]
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						nb := 1 - b.Row(lo + si)[bit]
						lpf.Data[si] = p.Row(si)[bit] + condTerm(z.Row(si)[bit], nb)
						copy(sf.Row(si), snapBand[si*m.h:(si+1)*m.h])
					}
				})
				if bit < m.n-1 {
					tensor.MatMulT(pre, sf, m.Wh, e.workers)
					parallel.For(s, e.workers, func(slo, shi int) {
						for si := slo; si < shi; si++ {
							nb := 1 - b.Row(lo + si)[bit]
							m.stepActivate(sf.Row(si), pre.Row(si), nb)
						}
					})
				}
			}
			for j := j0; j < m.n; j++ {
				tensor.MatMulT(zc, sf, vmat, e.workers)
				if j < m.n-1 {
					tensor.MatMulT(pre, sf, m.Wh, e.workers)
				}
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						bj := b.Row(lo + si)[j]
						if j == bit {
							bj = 1 - bj
						}
						lpf.Data[si] += condTerm(zc.Data[si]+m.Bout[j], bj)
						if j < m.n-1 {
							m.stepActivate(sf.Row(si), pre.Row(si), bj)
						}
					}
				})
			}
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					delta[(lo+si)*nf+f] = 0.5*lpf.Data[si] - base[lo+si]
				}
			})
		}
	}
}

// rnnBatchAncestral advances all samples of a batch site-by-site: one B-row
// GEMM against Wh per recurrence step over the resident B x h hidden state,
// with the per-sample arithmetic exactly the incremental evaluator's
// (outputZ + stepState), so given the same uniforms the sampled bits are
// identical to scalar ancestral sampling.
type rnnBatchAncestral struct {
	m                  *RNNWavefunction
	bufS, bufPre, bufZ []float64
}

// NewBatchAncestralSampler implements BatchAncestralBuilder.
func (m *RNNWavefunction) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rnnBatchAncestral{m: m}
}

// Sample implements BatchAncestralSampler.
func (a *rnnBatchAncestral) Sample(b ConfigBatch, u []float64, workers int) {
	m := a.m
	checkAncestral(m.n, b, u)
	vmat := &tensor.Matrix{Rows: 1, Cols: m.h, Data: m.V}
	st := growMat(&a.bufS, b.N, m.h)
	pre := growMat(&a.bufPre, b.N, m.h)
	zc := growMat(&a.bufZ, b.N, 1)
	parallel.For(b.N, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			copy(st.Row(r), m.S0)
		}
	})
	for i := 0; i < m.n; i++ {
		tensor.MatMulT(zc, st, vmat, workers)
		if i < m.n-1 {
			tensor.MatMulT(pre, st, m.Wh, workers)
		}
		parallel.For(b.N, workers, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				pr := 1 / (1 + math.Exp(-(zc.Data[r] + m.Bout[i])))
				bit := 0
				if u[r*m.n+i] < pr {
					bit = 1
				}
				b.Bits[r*b.Sites+i] = bit
				if i < m.n-1 {
					m.stepActivate(st.Row(r), pre.Row(r), bit)
				}
			}
		})
	}
}

var (
	_ BatchEvaluatorBuilder         = (*RNNWavefunction)(nil)
	_ FullFlipBatchEvaluatorBuilder = (*RNNWavefunction)(nil)
	_ BatchAncestralBuilder         = (*RNNWavefunction)(nil)
)
