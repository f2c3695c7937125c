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
// Like the RNN, NADE keeps no parameter-derived state: every kernel reads
// theta through the layer views, so an in-place parameter update is visible
// to every evaluator at once and there is nothing to invalidate or pre-warm.
type NADE struct {
	n, h  int
	theta tensor.Vector
	W     *tensor.Matrix // h x n, input-to-hidden accumulation weights
	C     tensor.Vector  // h, initial hidden state
	V     *tensor.Matrix // n x h, per-site output weights
	B     tensor.Vector  // n, output biases
	// pool recycles evaluation scratch for the convenience entry points
	// (LogProb, Conditional, GradLogPsi), which previously allocated a fresh
	// NADEScratch per call — a hidden per-sample allocation in any hot loop
	// driving the model through the interface types.
	pool sync.Pool
}

// NADEScratch holds per-worker evaluation buffers.
type NADEScratch struct {
	A tensor.Vector // running hidden accumulator (h)
	// backward workspaces
	As *tensor.Matrix // n x h: a_i before consuming site i (for backprop)
	dA tensor.Vector
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

// NewScratch allocates evaluation buffers for one worker.
func (m *NADE) NewScratch() *NADEScratch {
	return &NADEScratch{
		A:  tensor.NewVector(m.h),
		As: tensor.NewMatrix(m.n, m.h),
		dA: tensor.NewVector(m.h),
	}
}

// getScratch borrows a scratch from the model's pool (concurrency-safe;
// allocation-free in steady state). Pair with putScratch.
func (m *NADE) getScratch() *NADEScratch {
	if s, ok := m.pool.Get().(*NADEScratch); ok {
		return s
	}
	return m.NewScratch()
}

func (m *NADE) putScratch(s *NADEScratch) { m.pool.Put(s) }

// NumSites implements Wavefunction.
func (m *NADE) NumSites() int { return m.n }

// Hidden returns the hidden width h.
func (m *NADE) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *NADE) NumParams() int { return len(m.theta) }

// Params implements Wavefunction.
func (m *NADE) Params() tensor.Vector { return m.theta }

// conditionalZ computes the output pre-activation for site i given the
// current hidden accumulator, V_i . relu(a) + b_i, with the ReLU applied as
// a skip-on-nonpositive: a relu(a_k) = +0 term is an exact no-op in the
// ascending dot chain (a sum that starts at +0 never becomes -0), so the
// value is bitwise the dot over a materialized activation, and a trained
// model's mostly-inactive hidden units cost a compare, not a multiply-add.
func (m *NADE) conditionalZ(a tensor.Vector, i int) float64 {
	var z float64
	for k, v := range m.V.Row(i) {
		if av := a[k]; av > 0 {
			z += v * av
		}
	}
	return z + m.B[i]
}

// accumulate folds site i's bit into the hidden state.
func (m *NADE) accumulate(a tensor.Vector, i, bit int) {
	if bit == 0 {
		return
	}
	for k := 0; k < m.h; k++ {
		a[k] += m.W.At(k, i)
	}
}

// LogProbScratch evaluates log pi(x) in O(nh).
func (m *NADE) LogProbScratch(x []int, s *NADEScratch) float64 {
	copy(s.A, m.C)
	var lp float64
	for i, b := range x {
		z := m.conditionalZ(s.A, i)
		lp += condTerm(z, b)
		m.accumulate(s.A, i, b)
	}
	return lp
}

// LogProb implements Normalized. It borrows pooled scratch, so repeated
// calls do not allocate; hot paths with a per-worker scratch should still
// prefer LogProbScratch.
func (m *NADE) LogProb(x []int) float64 {
	s := m.getScratch()
	lp := m.LogProbScratch(x, s)
	m.putScratch(s)
	return lp
}

// LogPsi implements Wavefunction: psi = sqrt(pi).
func (m *NADE) LogPsi(x []int) float64 { return 0.5 * m.LogProb(x) }

// LogPsiScratch is the buffer-reusing variant.
func (m *NADE) LogPsiScratch(x []int, s *NADEScratch) float64 {
	return 0.5 * m.LogProbScratch(x, s)
}

// Conditional implements Autoregressive: P(x_i = 1 | x_<i). It borrows
// pooled scratch; hot paths should use ConditionalScratch.
func (m *NADE) Conditional(x []int, i int) float64 {
	s := m.getScratch()
	p := m.ConditionalScratch(x, i, s)
	m.putScratch(s)
	return p
}

// ConditionalScratch is the buffer-reusing variant of Conditional.
func (m *NADE) ConditionalScratch(x []int, i int, s *NADEScratch) float64 {
	copy(s.A, m.C)
	for j := 0; j < i; j++ {
		m.accumulate(s.A, j, x[j])
	}
	return 1 / (1 + math.Exp(-m.conditionalZ(s.A, i)))
}

// GradLogPsiScratch accumulates d log psi / d theta into grad (overwritten).
// Backprop through the accumulation chain: dz_i flows to V_i, b_i and
// relu(a_i); the hidden-state gradient is then pushed back through every
// earlier accumulation step.
func (m *NADE) GradLogPsiScratch(x []int, grad tensor.Vector, s *NADEScratch) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	h, n := m.h, m.n
	for i := range grad {
		grad[i] = 0
	}
	gW := grad[0 : h*n]
	gC := grad[h*n : h*n+h]
	gV := grad[h*n+h : h*n+h+n*h]
	gB := grad[h*n+h+n*h:]

	// Forward, recording a_i before site i consumes its bit.
	copy(s.A, m.C)
	for i, b := range x {
		copy(s.As.Row(i), s.A)
		m.accumulate(s.A, i, b)
	}
	// Backward. dA accumulates gradients flowing into the hidden state
	// from later sites' conditionals.
	for k := range s.dA {
		s.dA[k] = 0
	}
	for i := n - 1; i >= 0; i-- {
		// The accumulation a_{i+1} = a_i + W[:,i] x_i happened after the
		// conditional at site i, so dA currently holds d/d a_{i+1}:
		// route it into W[:,i] before adding site i's own contribution.
		if x[i] == 1 {
			for k := 0; k < h; k++ {
				gW[k*n+i] += s.dA[k]
			}
		}
		ai := s.As.Row(i)
		z := m.conditionalZ(ai, i)
		dz := float64(x[i]) - 1/(1+math.Exp(-z))
		gB[i] += dz
		vrow := m.V.Row(i)
		base := i * h
		// Inactive units contribute dz * relu(a_k) = +/-0 to the (zeroed)
		// V_i gradient and nothing to dA: skipping them leaves +0 in place.
		for k, av := range ai {
			if av > 0 {
				gV[base+k] += dz * av
				s.dA[k] += dz * vrow[k]
			}
		}
	}
	copy(gC, s.dA)
	// psi = sqrt(pi): halve the log-prob gradient.
	grad.Scale(0.5)
}

// GradLogPsi implements Wavefunction. It borrows pooled scratch; hot paths
// use NewGradEvaluator's per-worker instances instead.
func (m *NADE) GradLogPsi(x []int, grad tensor.Vector) {
	s := m.getScratch()
	m.GradLogPsiScratch(x, grad, s)
	m.putScratch(s)
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *NADE) NewGradEvaluator() GradEvaluator {
	return &nadeGradEvaluator{m: m, s: m.NewScratch()}
}

type nadeGradEvaluator struct {
	m *NADE
	s *NADEScratch
}

func (e *nadeGradEvaluator) GradLogPsi(x []int, grad tensor.Vector) {
	e.m.GradLogPsiScratch(x, grad, e.s)
}

func (e *nadeGradEvaluator) LogPsi(x []int) float64 { return e.m.LogPsiScratch(x, e.s) }

// NewFlipCache implements CacheBuilder with a tail-only TailFlipCache:
// NADE's hidden accumulator consumes sites in ascending order, so a flip of
// bit b leaves every a_i with i <= b — and therefore site b's conditional
// pre-activation z_b — bitwise untouched. The cache records, per site, the
// accumulator snapshot a_i, the pre-activation z_i, and the log-probability
// prefix sums; FlipLogPsi resumes the accumulation chain and the fold from
// site b in O((n-b) h) instead of the O(nh) full recompute, producing
// flipped log-psi values bitwise identical to a fresh LogPsi.
func (m *NADE) NewFlipCache(x []int) FlipCache {
	c := &nadeFlipCache{
		m: m, s: m.NewScratch(), x: make([]int, m.n),
		z: tensor.NewVector(m.n), p: tensor.NewVector(m.n + 1),
	}
	copy(c.x, x)
	c.rebase(0)
	return c
}

// nadeFlipCache is NADE's tail-only TailFlipCache; see NADE.NewFlipCache.
// s.As row i holds a_i (the accumulator before site i consumes its bit),
// z[i] the site's conditional pre-activation, and p[i] the log-probability
// fold over sites < i (p[n] is the total; p[0] stays 0).
type nadeFlipCache struct {
	m      *NADE
	s      *NADEScratch
	x      []int
	z, p   tensor.Vector
	logPsi float64
}

// rebase recomputes the recorded base trajectory from site `from` onward,
// reusing the prefix records (sites < from are unaffected by whatever change
// prompted the rebase). The resumed chain performs the identical operations
// a from-scratch rebuild would, so the records are bitwise independent of
// the rebase history.
func (c *nadeFlipCache) rebase(from int) {
	m, s := c.m, c.s
	if from == 0 {
		copy(s.A, m.C)
	} else {
		copy(s.A, s.As.Row(from))
	}
	for i := from; i < m.n; i++ {
		copy(s.As.Row(i), s.A)
		c.z[i] = m.conditionalZ(s.A, i)
		c.p[i+1] = c.p[i] + condTerm(c.z[i], c.x[i])
		m.accumulate(s.A, i, c.x[i])
	}
	c.logPsi = 0.5 * c.p[m.n]
}

func (c *nadeFlipCache) LogPsi() float64 { return c.logPsi }

// FlipLogPsi implements TailFlipCache: re-branch site bit on the unchanged
// base z, resume the accumulation chain from the recorded a_bit snapshot
// with the flipped bit folded in, and fold the tail terms onto the recorded
// prefix sum — bitwise a fresh LogPsi of the flipped configuration.
func (c *nadeFlipCache) FlipLogPsi(bit int) float64 {
	m, s := c.m, c.s
	nb := 1 - c.x[bit]
	lp := c.p[bit] + condTerm(c.z[bit], nb)
	copy(s.A, s.As.Row(bit))
	m.accumulate(s.A, bit, nb)
	for j := bit + 1; j < m.n; j++ {
		lp += condTerm(m.conditionalZ(s.A, j), c.x[j])
		m.accumulate(s.A, j, c.x[j])
	}
	return 0.5 * lp
}

func (c *nadeFlipCache) Delta(bit int) float64 { return c.FlipLogPsi(bit) - c.logPsi }

func (c *nadeFlipCache) Flip(bit int) {
	c.x[bit] = 1 - c.x[bit]
	c.rebase(bit)
}

func (c *nadeFlipCache) State() []int { return c.x }

func (c *nadeFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.rebase(0)
}

// NewBatchEvaluator implements BatchEvaluatorBuilder with the row adaptor
// over NewFlipCache and NewGradEvaluator: the prefix-reusing scalar flip
// cache ties or beats a site-major slab kernel for this family at every
// measured size and worker count (docs/ARCHITECTURE.md, "Which kernel a
// family keeps"), so the scalar path is the batched path. workers bounds
// the fan-out (<= 0 means GOMAXPROCS) and does not affect any output value.
// The evaluator is not safe for concurrent use.
func (m *NADE) NewBatchEvaluator(workers int) BatchEvaluator { return newRowEvaluator(m, workers) }

// NewBatchAncestralSampler implements BatchAncestralBuilder with the row
// adaptor over NewIncrementalEvaluator.
func (m *NADE) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
}

// NewIncrementalEvaluator returns the natural O(h)-per-bit NADE evaluator
// (NADE's accumulation is incremental by construction).
func (m *NADE) NewIncrementalEvaluator() ConditionalEvaluator {
	s := m.NewScratch()
	e := &nadeEvaluator{m: m, s: s}
	e.Reset()
	return e
}

type nadeEvaluator struct {
	m      *NADE
	s      *NADEScratch
	fixed  int
	passes int64
}

func (e *nadeEvaluator) Reset() {
	copy(e.s.A, e.m.C)
	e.fixed = 0
}

func (e *nadeEvaluator) Prob(i int) float64 {
	return 1 / (1 + math.Exp(-e.m.conditionalZ(e.s.A, i)))
}

func (e *nadeEvaluator) Fix(i, bit int) {
	e.m.accumulate(e.s.A, i, bit)
	if e.fixed++; e.fixed == e.m.n {
		e.passes++
	}
}

func (e *nadeEvaluator) ForwardPasses() int64 { return e.passes }

var (
	_ Autoregressive        = (*NADE)(nil)
	_ CacheBuilder          = (*NADE)(nil)
	_ GradEvaluatorBuilder  = (*NADE)(nil)
	_ BatchEvaluatorBuilder = (*NADE)(nil)
	_ BatchAncestralBuilder = (*NADE)(nil)
	_ ConditionalEvaluator  = (*nadeEvaluator)(nil)
	_ TailFlipCache         = (*nadeFlipCache)(nil)
)
