package nn

import (
	"math"
	"sync"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// NADE is the neural autoregressive distribution estimator of Larochelle &
// Murray (2011), the architecture MADE improves on (paper Section 3). One
// shared weight matrix feeds a per-site hidden state that accumulates as
// sites are consumed:
//
//	a_0 = c;   a_{i+1} = a_i + W[:,i] x_i
//	p_i = sigma(v_i . relu(a_i) + b_i)
//
// Evaluation and sampling are O(nh) per configuration without any masking —
// the accumulation makes conditionals autoregressive by construction. Like
// MADE it is normalized, so exact (AUTO) sampling applies.
//
// Parameters: W (h x n), c (h), V (n x h), b (n); d = 2hn + h + n, the same
// count as MADE at equal width.
//
// NADE folds one h-wide state over the sites in ascending order, site i's
// conditional reading the state produced by bits < i: initState starts it,
// siteZ reads a conditional off it, consume advances it past a bit and
// backward runs the gradient back through it. Every kernel reads theta
// through the layer views, so NADE keeps no parameter-derived state: an
// in-place parameter update is visible to every evaluator at once and there
// is nothing to invalidate or pre-warm.
type NADE struct {
	n, h  int
	theta tensor.Vector
	// pool recycles scratch for the convenience entry points (LogProb,
	// GradLogPsi), which would otherwise allocate per call in any loop
	// driving the model through the interface types.
	pool sync.Pool
	W    *tensor.Matrix // h x n, input-to-hidden accumulation weights
	C    tensor.Vector  // h, initial hidden state
	V    *tensor.Matrix // n x h, per-site output weights
	B    tensor.Vector  // n, output biases
}

// NewNADE builds a NADE with n sites and hidden width h.
func NewNADE(n, h int, r *rng.Rand) *NADE {
	if n < 1 || h < 1 {
		panic("nn: NADE requires n >= 1 and h >= 1")
	}
	d := 2*h*n + h + n
	theta := tensor.NewVector(d)
	m := &NADE{n: n, h: h, theta: theta}
	off := 0
	m.W = &tensor.Matrix{Rows: h, Cols: n, Data: theta[off : off+h*n]}
	off += h * n
	m.C = theta[off : off+h]
	off += h
	m.V = &tensor.Matrix{Rows: n, Cols: h, Data: theta[off : off+n*h]}
	off += n * h
	m.B = theta[off : off+n]
	// Fan-in = the trailing dimension of each block, matching the vectors'
	// roles: c seeds the h-wide hidden state, b biases the n-wide output.
	// (The draw COUNT and order are unchanged — uniformInit always fills
	// len(w) values — so MADE/RBM init streams are unaffected.)
	uniformInit(m.W.Data, n, r)
	uniformInit(m.C, h, r)
	uniformInit(m.V.Data, h, r)
	uniformInit(m.B, n, r)
	return m
}

// initState writes the state the first site's conditional reads: a_0 = c.
func (m *NADE) initState(a tensor.Vector) { copy(a, m.C) }

// siteZ is site i's conditional pre-activation on state a, the current
// hidden accumulator: V_i . relu(a) + b_i, with the ReLU applied as
// a skip-on-nonpositive: a relu(a_k) = +0 term is an exact no-op in the
// ascending dot chain (a sum that starts at +0 never becomes -0), so the
// value is bitwise the dot over a materialized activation, and a trained
// model's mostly-inactive hidden units cost a compare, not a multiply-add.
func (m *NADE) siteZ(a tensor.Vector, i int) float64 {
	var z float64
	for k, v := range m.V.Row(i) {
		if av := a[k]; av > 0 {
			z += float64(v * av)
		}
	}
	return z + m.B[i]
}

// consume advances a past site i holding bit: fold the bit into the
// accumulator. Nothing reads the state past the last site, so it is not
// advanced there.
func (m *NADE) consume(a tensor.Vector, i, bit int) {
	if bit == 0 || i == m.n-1 {
		return
	}
	for k := 0; k < m.h; k++ {
		a[k] += m.W.At(k, i)
	}
}

// backward adds d log pi(x) / d theta into the zeroed grad; s.States row i
// holds the state site i read and s.dS arrives zeroed. Backprop through the
// accumulation chain: dz_i flows to V_i, b_i and relu(a_i); the hidden-state
// gradient dS is then pushed back through every earlier accumulation step.
func (m *NADE) backward(x []int, grad tensor.Vector, s *seqScratch) {
	h, n := m.h, m.n
	gW := grad[0 : h*n]
	gC := grad[h*n : h*n+h]
	gV := grad[h*n+h : h*n+h+n*h]
	gB := grad[h*n+h+n*h:]
	for i := n - 1; i >= 0; i-- {
		// The accumulation a_{i+1} = a_i + W[:,i] x_i happened after the
		// conditional at site i, so dS currently holds d/d a_{i+1}:
		// route it into W[:,i] before adding site i's own contribution.
		if x[i] == 1 {
			for k := 0; k < h; k++ {
				gW[k*n+i] += s.dS[k]
			}
		}
		ai := s.States.Row(i)
		dz := float64(x[i]) - 1/(1+math.Exp(-m.siteZ(ai, i)))
		gB[i] += dz
		vrow := m.V.Row(i)
		base := i * h
		// Inactive units contribute dz * relu(a_k) = +/-0 to the (zeroed)
		// V_i gradient and nothing to dS: skipping them leaves +0 in place.
		for k, av := range ai {
			if av > 0 {
				gV[base+k] += float64(dz * av)
				s.dS[k] += float64(dz * vrow[k])
			}
		}
	}
	copy(gC, s.dS)
}

// seqScratch holds one worker's evaluation buffers for a NADE.
type seqScratch struct {
	S      tensor.Vector  // running state (h)
	States *tensor.Matrix // n x h: row i is the state site i's conditional reads
	dS     tensor.Vector  // backward workspace (h)
}

// newScratch allocates evaluation buffers for one worker.
func (m *NADE) newScratch() *seqScratch {
	return &seqScratch{
		S:      tensor.NewVector(m.h),
		States: tensor.NewMatrix(m.n, m.h),
		dS:     tensor.NewVector(m.h),
	}
}

// pooled runs f on a scratch borrowed from the model's pool
// (concurrency-safe; allocation-free in steady state).
func (m *NADE) pooled(f func(s *seqScratch)) {
	s, ok := m.pool.Get().(*seqScratch)
	if !ok {
		s = m.newScratch()
	}
	f(s)
	m.pool.Put(s)
}

// NumSites implements Wavefunction.
func (m *NADE) NumSites() int { return m.n }

// Hidden returns the hidden width h.
func (m *NADE) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *NADE) NumParams() int { return len(m.theta) }

// Params implements Wavefunction.
func (m *NADE) Params() tensor.Vector { return m.theta }

// logProbScratch evaluates log pi(x): one siteZ and one consume per site.
func (m *NADE) logProbScratch(x []int, s *seqScratch) float64 {
	m.initState(s.S)
	var lp float64
	for i, b := range x {
		lp += condTerm(m.siteZ(s.S, i), b)
		m.consume(s.S, i, b)
	}
	return lp
}

// LogProb implements Normalized. It borrows pooled scratch, so repeated
// calls do not allocate; hot paths with a per-worker scratch should still
// prefer logProbScratch.
func (m *NADE) LogProb(x []int) (lp float64) {
	m.pooled(func(s *seqScratch) { lp = m.logProbScratch(x, s) })
	return lp
}

// LogPsi implements Wavefunction: psi = sqrt(pi).
func (m *NADE) LogPsi(x []int) float64 { return 0.5 * m.LogProb(x) }

// logPsiScratch is the buffer-reusing variant of LogPsi.
func (m *NADE) logPsiScratch(x []int, s *seqScratch) float64 {
	return 0.5 * m.logProbScratch(x, s)
}

// gradLogPsiScratch overwrites grad with d log psi / d theta: a forward
// pass recording the state every site read, then backward
// through those records, halved because psi = sqrt(pi).
func (m *NADE) gradLogPsiScratch(x []int, grad tensor.Vector, s *seqScratch) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	clear(grad)
	m.initState(s.S)
	for i, b := range x {
		copy(s.States.Row(i), s.S)
		m.consume(s.S, i, b)
	}
	clear(s.dS)
	m.backward(x, grad, s)
	grad.Scale(0.5)
}

// GradLogPsi implements Wavefunction. It borrows pooled scratch; hot paths
// use NewGradEvaluator's per-worker instances instead.
func (m *NADE) GradLogPsi(x []int, grad tensor.Vector) {
	m.pooled(func(s *seqScratch) { m.gradLogPsiScratch(x, grad, s) })
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *NADE) NewGradEvaluator() GradEvaluator {
	return scratchGrad[*seqScratch]{m, m.newScratch()}
}

// NewFlipCache implements CacheBuilder with a tail-only tailFlipCache: the
// state consumes sites in ascending order, so a flip of bit b leaves the
// state every site i <= b reads — and therefore site b's conditional
// pre-activation z_b — bitwise untouched. The cache records, per site, the
// state snapshot, the pre-activation and the log-probability prefix sums;
// FlipLogPsi resumes the chain and the fold from site b, O(n-b)
// accumulation steps instead of the O(n) of a full recompute, producing
// flipped log-psi values bitwise identical to a fresh LogPsi.
func (m *NADE) NewFlipCache(x []int) FlipCache {
	c := &seqFlipCache{
		m: m, s: m.newScratch(), x: make([]int, m.n),
		z: tensor.NewVector(m.n), p: tensor.NewVector(m.n + 1),
	}
	c.Reset(x)
	return c
}

// seqFlipCache is NADE's tail-only tailFlipCache; see NADE.NewFlipCache.
// s.States row i holds the state site i's conditional reads, z[i] that
// site's pre-activation, and p[i] the log-probability fold over sites < i
// (p[n] is the total; p[0] stays 0).
type seqFlipCache struct {
	m      *NADE
	s      *seqScratch
	x      []int
	z, p   tensor.Vector
	logPsi float64
}

// rebase recomputes the recorded base trajectory from site `from` onward,
// reusing the prefix records (sites < from are unaffected by whatever change
// prompted the rebase). The resumed chain performs the identical operations
// a from-scratch rebuild would, so the records are bitwise independent of
// the rebase history.
func (c *seqFlipCache) rebase(from int) {
	m, s := c.m, c.s
	if from == 0 {
		m.initState(s.S)
	} else {
		copy(s.S, s.States.Row(from))
	}
	for i := from; i < m.n; i++ {
		copy(s.States.Row(i), s.S)
		c.z[i] = m.siteZ(s.S, i)
		c.p[i+1] = c.p[i] + condTerm(c.z[i], c.x[i])
		m.consume(s.S, i, c.x[i])
	}
	c.logPsi = 0.5 * c.p[m.n]
}

func (c *seqFlipCache) LogPsi() float64 { return c.logPsi }

// FlipLogPsi implements tailFlipCache: re-branch site bit on the unchanged
// base z, resume the chain from the recorded snapshot with the flipped bit
// consumed, and fold the tail terms onto the recorded prefix sum — bitwise
// a fresh LogPsi of the flipped configuration.
func (c *seqFlipCache) FlipLogPsi(bit int) float64 {
	m, s := c.m, c.s
	nb := 1 - c.x[bit]
	lp := c.p[bit] + condTerm(c.z[bit], nb)
	copy(s.S, s.States.Row(bit))
	m.consume(s.S, bit, nb)
	for j := bit + 1; j < m.n; j++ {
		lp += condTerm(m.siteZ(s.S, j), c.x[j])
		m.consume(s.S, j, c.x[j])
	}
	return 0.5 * lp
}

func (c *seqFlipCache) Delta(bit int) float64 { return c.FlipLogPsi(bit) - c.logPsi }

func (c *seqFlipCache) Flip(bit int) {
	c.x[bit] = 1 - c.x[bit]
	c.rebase(bit)
}

func (c *seqFlipCache) State() []int { return c.x }

func (c *seqFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.rebase(0)
}

// NewIncrementalEvaluator returns the ancestral-sampling evaluator: the
// fold is incremental by construction, one accumulation step per fixed bit.
func (m *NADE) NewIncrementalEvaluator() ConditionalEvaluator {
	e := &seqEvaluator{m: m, s: m.newScratch()}
	e.Reset()
	return e
}

type seqEvaluator struct {
	m      *NADE
	s      *seqScratch
	fixed  int
	passes int64
}

func (e *seqEvaluator) Reset() {
	e.m.initState(e.s.S)
	e.fixed = 0
}

func (e *seqEvaluator) Prob(i int) float64 {
	return 1 / (1 + math.Exp(-e.m.siteZ(e.s.S, i)))
}

func (e *seqEvaluator) Fix(i, bit int) {
	e.m.consume(e.s.S, i, bit)
	if e.fixed++; e.fixed == e.m.n {
		e.passes++
	}
}

func (e *seqEvaluator) ForwardPasses() int64 { return e.passes }

// NewBatchEvaluator implements BatchEvaluatorBuilder with the row adaptor
// over NewFlipCache and NewGradEvaluator, one per worker behind splitRows:
// the flips of one row share every prefix of the chain and the scalar cache
// reuses them in place — a site-major slab kernel ties or loses to that at
// every measured size and worker count
// (docs/ARCHITECTURE.md, "Which kernel a family keeps"), so the scalar path
// is the batched path. workers bounds the fan-out (<= 0 means GOMAXPROCS)
// and does not affect any output value. The evaluator is not safe for
// concurrent use.
func (m *NADE) NewBatchEvaluator(workers int) BatchEvaluator {
	return splitRows(m, workers, func() blockEvaluator { return newRowEvaluator(m) })
}

// NewBatchAncestralSampler implements BatchAncestralBuilder with the row
// adaptor over NewIncrementalEvaluator.
func (m *NADE) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
}

var (
	_ CacheBuilder          = (*NADE)(nil)
	_ GradEvaluatorBuilder  = (*NADE)(nil)
	_ BatchEvaluatorBuilder = (*NADE)(nil)
	_ BatchAncestralBuilder = (*NADE)(nil)
	_ tailFlipCache         = (*seqFlipCache)(nil)
)
