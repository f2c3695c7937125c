package nn

import (
	"math"
	"sync"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// RNNWavefunction is a recurrent neural wavefunction in the spirit of
// Hibat-Allah et al. (2020), the other autoregressive family the paper's
// related-work section discusses. A vanilla tanh RNN consumes sites in
// order; the hidden state after seeing x_<i parameterizes the conditional
// for site i:
//
//	s_0 = s0;  s_{i} = tanh(Wh s_{i-1} + wx * x_{i-1} + bh)  (i >= 1)
//	p_i = sigma(v . s_i + b_i)
//
// Like MADE and NADE it is normalized and exactly sampleable, with O(h^2)
// work per site. Parameters: Wh (h x h), Wx (h), Bh (h), S0 (h), V (h),
// Bout (n); d = h^2 + 4h + n.
//
// The RNN needs no transposed parameter caches for its batched path: the
// batched kernels contract against Wh directly (tensor.MatMulT computes
// rows of S . Wh^T with the exact MulVec dot chains) and view V as a 1 x h
// matrix aliasing theta, so InvalidateParams has nothing to rebuild here.
type RNNWavefunction struct {
	n, h  int
	theta tensor.Vector
	Wh    *tensor.Matrix // h x h recurrence
	Wx    tensor.Vector  // h, input weight (bit is scalar)
	Bh    tensor.Vector  // h, recurrence bias
	S0    tensor.Vector  // h, learned initial state
	V     tensor.Vector  // h, output projection (shared across sites)
	Bout  tensor.Vector  // n, per-site output bias
	// pool recycles evaluation scratch for the convenience entry points
	// (LogProb, Conditional, GradLogPsi); see the NADE pool for rationale.
	pool sync.Pool
}

// RNNScratch holds per-worker buffers.
type RNNScratch struct {
	S    tensor.Vector  // current hidden state (h)
	Pre  tensor.Vector  // pre-activation workspace (h)
	Ss   *tensor.Matrix // (n+1) x h recorded states for backprop
	dS   tensor.Vector
	dPre tensor.Vector
}

// NewRNN builds an RNN wavefunction with n sites and hidden width h.
func NewRNN(n, h int, r *rng.Rand) *RNNWavefunction {
	if n < 1 || h < 1 {
		panic("nn: RNN requires n >= 1 and h >= 1")
	}
	d := h*h + 4*h + n
	theta := tensor.NewVector(d)
	m := &RNNWavefunction{n: n, h: h, theta: theta}
	off := 0
	m.Wh = &tensor.Matrix{Rows: h, Cols: h, Data: theta[off : off+h*h]}
	off += h * h
	m.Wx = theta[off : off+h]
	off += h
	m.Bh = theta[off : off+h]
	off += h
	m.S0 = theta[off : off+h]
	off += h
	m.V = theta[off : off+h]
	off += h
	m.Bout = theta[off : off+n]
	uniformInit(m.Wh.Data, h, r)
	uniformInit(m.Wx, h, r)
	uniformInit(m.Bh, h, r)
	uniformInit(m.S0, h, r)
	uniformInit(m.V, h, r)
	// Bout biases the n-wide output layer; its fan-in is n, not h. (Draw
	// count and order are unchanged, so other models' init streams are
	// unaffected.)
	uniformInit(m.Bout, n, r)
	return m
}

// NewScratch allocates evaluation buffers.
func (m *RNNWavefunction) NewScratch() *RNNScratch {
	return &RNNScratch{
		S:    tensor.NewVector(m.h),
		Pre:  tensor.NewVector(m.h),
		Ss:   tensor.NewMatrix(m.n+1, m.h),
		dS:   tensor.NewVector(m.h),
		dPre: tensor.NewVector(m.h),
	}
}

// getScratch borrows a scratch from the model's pool (concurrency-safe;
// allocation-free in steady state). Pair with putScratch.
func (m *RNNWavefunction) getScratch() *RNNScratch {
	if s, ok := m.pool.Get().(*RNNScratch); ok {
		return s
	}
	return m.NewScratch()
}

func (m *RNNWavefunction) putScratch(s *RNNScratch) { m.pool.Put(s) }

// NumSites implements Wavefunction.
func (m *RNNWavefunction) NumSites() int { return m.n }

// Hidden returns h.
func (m *RNNWavefunction) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *RNNWavefunction) NumParams() int { return len(m.theta) }

// Params implements Wavefunction.
func (m *RNNWavefunction) Params() tensor.Vector { return m.theta }

// stepState advances s through one recurrence consuming bit: the Wh matvec
// into pre followed by stepActivate.
func (m *RNNWavefunction) stepState(s, pre tensor.Vector, bit int) {
	m.Wh.MulVec(pre, s)
	m.stepActivate(s, pre, bit)
}

// stepActivate finishes a recurrence step given pre already holding Wh s:
// pre[k] += Wx[k] x + Bh[k]; s[k] = tanh(pre[k]). It is shared verbatim
// between the scalar path (stepState) and the batched path (which fills the
// batch's pre rows via one tensor.MatMulT against Wh and then activates each
// row through this function), so the two produce bitwise-identical states.
func (m *RNNWavefunction) stepActivate(s, pre tensor.Vector, bit int) {
	xb := float64(bit)
	for k := 0; k < m.h; k++ {
		pre[k] += m.Wx[k]*xb + m.Bh[k]
		s[k] = math.Tanh(pre[k])
	}
}

// outputZ is the conditional pre-activation for site i.
func (m *RNNWavefunction) outputZ(s tensor.Vector, i int) float64 {
	return m.V.Dot(s) + m.Bout[i]
}

// LogProbScratch evaluates log pi(x) in O(n h^2).
func (m *RNNWavefunction) LogProbScratch(x []int, s *RNNScratch) float64 {
	copy(s.S, m.S0)
	var lp float64
	for i, b := range x {
		lp += condTerm(m.outputZ(s.S, i), b)
		if i < m.n-1 {
			m.stepState(s.S, s.Pre, b)
		}
	}
	return lp
}

// LogProb implements Normalized. It borrows pooled scratch, so repeated
// calls do not allocate; hot paths with a per-worker scratch should still
// prefer LogProbScratch.
func (m *RNNWavefunction) LogProb(x []int) float64 {
	s := m.getScratch()
	lp := m.LogProbScratch(x, s)
	m.putScratch(s)
	return lp
}

// LogPsi implements Wavefunction.
func (m *RNNWavefunction) LogPsi(x []int) float64 { return 0.5 * m.LogProb(x) }

// LogPsiScratch is the buffer-reusing variant.
func (m *RNNWavefunction) LogPsiScratch(x []int, s *RNNScratch) float64 {
	return 0.5 * m.LogProbScratch(x, s)
}

// Conditional implements Autoregressive. It borrows pooled scratch; hot
// paths should use ConditionalScratch.
func (m *RNNWavefunction) Conditional(x []int, i int) float64 {
	s := m.getScratch()
	p := m.ConditionalScratch(x, i, s)
	m.putScratch(s)
	return p
}

// ConditionalScratch is the buffer-reusing variant of Conditional.
func (m *RNNWavefunction) ConditionalScratch(x []int, i int, s *RNNScratch) float64 {
	copy(s.S, m.S0)
	for j := 0; j < i; j++ {
		m.stepState(s.S, s.Pre, x[j])
	}
	return 1 / (1 + math.Exp(-m.outputZ(s.S, i)))
}

// GradLogPsiScratch runs backpropagation through time.
func (m *RNNWavefunction) GradLogPsiScratch(x []int, grad tensor.Vector, s *RNNScratch) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	h, n := m.h, m.n
	for i := range grad {
		grad[i] = 0
	}
	gWh := grad[0 : h*h]
	gWx := grad[h*h : h*h+h]
	gBh := grad[h*h+h : h*h+2*h]
	gS0 := grad[h*h+2*h : h*h+3*h]
	gV := grad[h*h+3*h : h*h+4*h]
	gBout := grad[h*h+4*h:]

	// Forward, recording s_i (the state used for site i's conditional).
	copy(s.S, m.S0)
	copy(s.Ss.Row(0), s.S)
	for i := 0; i < n-1; i++ {
		m.stepState(s.S, s.Pre, x[i])
		copy(s.Ss.Row(i+1), s.S)
	}

	// Backward through time.
	for k := range s.dS {
		s.dS[k] = 0
	}
	for i := n - 1; i >= 0; i-- {
		si := tensor.Vector(s.Ss.Row(i))
		z := m.V.Dot(si) + m.Bout[i]
		dz := float64(x[i]) - 1/(1+math.Exp(-z))
		gBout[i] += dz
		for k := 0; k < h; k++ {
			gV[k] += dz * si[k]
			s.dS[k] += dz * m.V[k]
		}
		if i == 0 {
			break
		}
		// Push dS back through s_i = tanh(Wh s_{i-1} + Wx x_{i-1} + Bh).
		prev := tensor.Vector(s.Ss.Row(i - 1))
		xb := float64(x[i-1])
		for k := 0; k < h; k++ {
			s.dPre[k] = s.dS[k] * (1 - si[k]*si[k])
		}
		for k := 0; k < h; k++ {
			dp := s.dPre[k]
			if dp == 0 {
				continue
			}
			gBh[k] += dp
			gWx[k] += dp * xb
			row := gWh[k*h : (k+1)*h]
			for j := 0; j < h; j++ {
				row[j] += dp * prev[j]
			}
		}
		// dS for the previous state.
		for j := 0; j < h; j++ {
			var acc float64
			for k := 0; k < h; k++ {
				acc += s.dPre[k] * m.Wh.At(k, j)
			}
			s.dS[j] = acc
		}
	}
	copy(gS0, s.dS)
	grad.Scale(0.5)
}

// GradLogPsi implements Wavefunction. It borrows pooled scratch; hot paths
// use NewGradEvaluator's per-worker instances instead.
func (m *RNNWavefunction) GradLogPsi(x []int, grad tensor.Vector) {
	s := m.getScratch()
	m.GradLogPsiScratch(x, grad, s)
	m.putScratch(s)
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *RNNWavefunction) NewGradEvaluator() GradEvaluator {
	return &rnnGradEvaluator{m: m, s: m.NewScratch()}
}

type rnnGradEvaluator struct {
	m *RNNWavefunction
	s *RNNScratch
}

func (e *rnnGradEvaluator) GradLogPsi(x []int, grad tensor.Vector) {
	e.m.GradLogPsiScratch(x, grad, e.s)
}

func (e *rnnGradEvaluator) LogPsi(x []int) float64 { return e.m.LogPsiScratch(x, e.s) }

// NewFlipCache implements CacheBuilder with a tail-only TailFlipCache: the
// recurrence consumes sites in ascending order, so a flip of bit b leaves
// s_i for i <= b — and therefore site b's conditional pre-activation —
// bitwise untouched. The cache records per-site hidden-state snapshots,
// pre-activations, and log-probability prefix sums; FlipLogPsi restarts the
// recurrence from the recorded s_b with the flipped bit and folds the tail
// in O((n-b) h^2) instead of the O(n h^2) full recompute, bitwise identical
// to a fresh LogPsi of the flipped configuration.
func (m *RNNWavefunction) NewFlipCache(x []int) FlipCache {
	c := &rnnFlipCache{
		m: m, s: m.NewScratch(), x: make([]int, m.n),
		z: tensor.NewVector(m.n), p: tensor.NewVector(m.n + 1),
	}
	copy(c.x, x)
	c.rebase(0)
	return c
}

// rnnFlipCache is the RNN's tail-only TailFlipCache; see
// RNNWavefunction.NewFlipCache. s.Ss row i holds s_i (the state site i's
// conditional reads), z[i] the site's pre-activation, and p[i] the
// log-probability fold over sites < i (p[n] is the total; p[0] stays 0).
type rnnFlipCache struct {
	m      *RNNWavefunction
	s      *RNNScratch
	x      []int
	z, p   tensor.Vector
	logPsi float64
}

// rebase recomputes the recorded base trajectory from site `from` onward,
// reusing the prefix records; the resumed recurrence performs exactly the
// operations a from-scratch rebuild would.
func (c *rnnFlipCache) rebase(from int) {
	m, s := c.m, c.s
	copy(s.S, s.Ss.Row(from))
	if from == 0 {
		copy(s.S, m.S0)
	}
	for i := from; i < m.n; i++ {
		copy(s.Ss.Row(i), s.S)
		c.z[i] = m.outputZ(s.S, i)
		c.p[i+1] = c.p[i] + condTerm(c.z[i], c.x[i])
		if i < m.n-1 {
			m.stepState(s.S, s.Pre, c.x[i])
		}
	}
	c.logPsi = 0.5 * c.p[m.n]
}

func (c *rnnFlipCache) LogPsi() float64 { return c.logPsi }

// FlipLogPsi implements TailFlipCache: re-branch site bit on the unchanged
// base pre-activation, restart the recurrence from the recorded s_bit
// snapshot consuming the flipped bit, and fold the tail onto the recorded
// prefix sum — bitwise a fresh LogPsi of the flipped configuration.
func (c *rnnFlipCache) FlipLogPsi(bit int) float64 {
	m, s := c.m, c.s
	nb := 1 - c.x[bit]
	lp := c.p[bit] + condTerm(c.z[bit], nb)
	if bit < m.n-1 {
		copy(s.S, s.Ss.Row(bit))
		m.stepState(s.S, s.Pre, nb)
		for j := bit + 1; j < m.n; j++ {
			lp += condTerm(m.outputZ(s.S, j), c.x[j])
			if j < m.n-1 {
				m.stepState(s.S, s.Pre, c.x[j])
			}
		}
	}
	return 0.5 * lp
}

func (c *rnnFlipCache) Delta(bit int) float64 { return c.FlipLogPsi(bit) - c.logPsi }

func (c *rnnFlipCache) Flip(bit int) {
	c.x[bit] = 1 - c.x[bit]
	c.rebase(bit)
}

func (c *rnnFlipCache) State() []int { return c.x }

func (c *rnnFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.rebase(0)
}

// NewIncrementalEvaluator returns the natural sequential RNN evaluator
// (one recurrence step per bit).
func (m *RNNWavefunction) NewIncrementalEvaluator() ConditionalEvaluator {
	e := &rnnEvaluator{m: m, s: m.NewScratch()}
	e.Reset()
	return e
}

type rnnEvaluator struct {
	m      *RNNWavefunction
	s      *RNNScratch
	fixed  int
	passes int64
}

func (e *rnnEvaluator) Reset() {
	copy(e.s.S, e.m.S0)
	e.fixed = 0
}

func (e *rnnEvaluator) Prob(i int) float64 {
	return 1 / (1 + math.Exp(-e.m.outputZ(e.s.S, i)))
}

func (e *rnnEvaluator) Fix(i, bit int) {
	if i < e.m.n-1 {
		e.m.stepState(e.s.S, e.s.Pre, bit)
	}
	if e.fixed++; e.fixed == e.m.n {
		e.passes++
	}
}

func (e *rnnEvaluator) ForwardPasses() int64 { return e.passes }

var (
	_ Autoregressive       = (*RNNWavefunction)(nil)
	_ CacheBuilder         = (*RNNWavefunction)(nil)
	_ GradEvaluatorBuilder = (*RNNWavefunction)(nil)
	_ TailFlipCache        = (*rnnFlipCache)(nil)
)
