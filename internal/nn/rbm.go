package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// RBM is the restricted-Boltzmann-machine wavefunction of Carleo & Troyer,
// matching the paper's architecture (FC -> Lncoshsum, plus a linear visible
// term added to the output):
//
//	log psi(s) = sum_k ln cosh(w_k . s + c_k) + a . s + a0
//
// where s_i = 1-2x_i in {+1,-1} are spins. The amplitude is unnormalized,
// so sampling pi(x) proportional to psi(x)^2 requires MCMC.
//
// Parameter count d = hn + h + n + 1, laid out [W | c | a | a0] in one flat
// vector; layer views alias that vector.
type RBM struct {
	n, h  int
	theta tensor.Vector
	W     *tensor.Matrix // h x n
	C     tensor.Vector  // h
	A     tensor.Vector  // n
	// A0 is theta[d-1], a constant offset (irrelevant to ratios but kept
	// to mirror the paper's FC_{n,1} output head).

	// Transposed-weight cache for the batched GEMM path: wt holds W^T
	// (n x h), materialized once per parameter version so LogPsiBatch/
	// GradLogPsiBatch/FlipLogPsiBatch can run theta = S * W^T as a blocked
	// MatMul with per-column accumulators (transposition is pure layout;
	// every product S_i * W_ki is the scalar MulVec product with operands
	// commuted, which is bitwise identical). The embedded derivedCache says
	// when it is stale; see prewarmCaches.
	derivedCache
	wt *tensor.Matrix
}

// rbmScratch holds per-worker buffers for RBM evaluation.
type rbmScratch struct {
	S     tensor.Vector // spins (n)
	Theta tensor.Vector // hidden pre-activations (h)
}

// NewRBM builds an RBM with n sites and h hidden units, weights initialized
// U(-1/sqrt(n), 1/sqrt(n)) scaled down to keep initial amplitudes tame.
func NewRBM(n, h int, r *rng.Rand) *RBM {
	if n < 1 || h < 1 {
		panic("nn: RBM requires n >= 1 and h >= 1")
	}
	d := h*n + h + n + 1
	theta := tensor.NewVector(d)
	m := &RBM{n: n, h: h, theta: theta}
	m.W = &tensor.Matrix{Rows: h, Cols: n, Data: theta[0 : h*n]}
	m.C = theta[h*n : h*n+h]
	m.A = theta[h*n+h : h*n+h+n]
	uniformInit(m.W.Data, n, r)
	uniformInit(m.C, n, r)
	uniformInit(m.A, n, r)
	// Scale down: ln cosh grows linearly, and n terms of O(1) would start
	// the chain in a very peaked distribution.
	tensor.Vector(m.W.Data).Scale(0.1)
	m.C.Scale(0.1)
	m.A.Scale(0.1)
	return m
}

// prewarmCaches materializes the transposed-weight cache for the current
// parameters. Coordinators call it (via nn.Prewarm) before fanning work out
// to workers so no worker pays the rebuild; rebuilds are mutex-serialized
// either way, so this is a latency optimization, not a safety requirement.
func (m *RBM) prewarmCaches() { m.weightsT() }

// weightsT returns W^T, rebuilding the cached transpose if the parameters
// changed since the last build. Safe for concurrent use (see derivedCache):
// the cached matrix is immutable between InvalidateParams calls, so the
// returned pointer stays valid for the whole parallel section.
func (m *RBM) weightsT() *tensor.Matrix {
	m.ensure(func() {
		if m.wt == nil {
			m.wt = tensor.NewMatrix(m.n, m.h)
		}
		for k := 0; k < m.h; k++ {
			for i := 0; i < m.n; i++ {
				m.wt.Data[i*m.h+k] = m.W.Data[k*m.n+i]
			}
		}
	})
	return m.wt
}

// newScratch allocates evaluation buffers for one worker.
func (m *RBM) newScratch() *rbmScratch {
	return &rbmScratch{S: tensor.NewVector(m.n), Theta: tensor.NewVector(m.h)}
}

// NumSites implements Wavefunction.
func (m *RBM) NumSites() int { return m.n }

// Hidden returns the number of hidden units h.
func (m *RBM) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *RBM) NumParams() int { return len(m.theta) }

// Params implements Wavefunction; the returned vector aliases the model.
func (m *RBM) Params() tensor.Vector { return m.theta }

// hiddenPre fills s.S with spins and s.Theta with w_k.s + c_k.
func (m *RBM) hiddenPre(x []int, s *rbmScratch) {
	for i, b := range x {
		s.S[i] = float64(1 - 2*b)
	}
	m.W.MulVec(s.Theta, s.S)
	s.Theta.Add(m.C)
}

// logPsiFromTheta reduces hidden pre-activations and spins to log psi:
// a0 first, then the ln-cosh terms in ascending hidden order, then the
// visible dot product. Shared verbatim by the scalar and batched paths —
// identical theta/spin bytes in, identical log psi out.
func (m *RBM) logPsiFromTheta(spins, theta tensor.Vector) float64 {
	lp := m.theta[len(m.theta)-1] // a0
	for _, th := range theta {
		lp += lnCosh(th)
	}
	lp += m.A.Dot(spins)
	return lp
}

// flipDelta computes log psi(x^bit) - log psi(x) in O(h) from the current
// hidden pre-activations and spins: flipping bit sends s_b -> -s_b, so
// theta_k -> theta_k - 2 W_kb s_b and the visible term changes by
// -2 a_b s_b. Shared verbatim by rbmFlipCache.Delta and the batched
// FlipLogPsiBatch — the flip-cache delta convention in one place.
func (m *RBM) flipDelta(spins, theta tensor.Vector, bit int) float64 {
	sb := spins[bit]
	var d float64
	for k := 0; k < m.h; k++ {
		old := theta[k]
		d += lnCosh(old-2*m.W.At(k, bit)*sb) - lnCosh(old)
	}
	d -= 2 * m.A[bit] * sb
	return d
}

// gradFromTheta runs the closed-form gradient from hidden pre-activations
// and spins into grad (overwritten): dW_ki = tanh(theta_k) s_i,
// dc_k = tanh(theta_k), da_i = s_i, da0 = 1. Shared verbatim by the scalar
// and batched gradient paths.
func (m *RBM) gradFromTheta(spins, theta tensor.Vector, grad tensor.Vector) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	h, n := m.h, m.n
	gW := grad[0 : h*n]
	gC := grad[h*n : h*n+h]
	gA := grad[h*n+h : h*n+h+n]
	for k := 0; k < h; k++ {
		t := math.Tanh(theta[k])
		gC[k] = t
		base := k * n
		for i := 0; i < n; i++ {
			gW[base+i] = t * spins[i]
		}
	}
	copy(gA, spins)
	grad[len(grad)-1] = 1
}

// logPsiScratch evaluates log psi(x) with caller-owned buffers.
func (m *RBM) logPsiScratch(x []int, s *rbmScratch) float64 {
	m.hiddenPre(x, s)
	return m.logPsiFromTheta(s.S, s.Theta)
}

// LogPsi implements Wavefunction. Hot paths should use logPsiScratch.
func (m *RBM) LogPsi(x []int) float64 { return m.logPsiScratch(x, m.newScratch()) }

// GradLogPsi implements Wavefunction.
func (m *RBM) GradLogPsi(x []int, grad tensor.Vector) {
	m.gradLogPsiScratch(x, grad, m.newScratch())
}

// gradLogPsiScratch accumulates d log psi / d theta into grad
// (overwritten), through the shared gradFromTheta closed form.
func (m *RBM) gradLogPsiScratch(x []int, grad tensor.Vector, s *rbmScratch) {
	m.hiddenPre(x, s)
	m.gradFromTheta(s.S, s.Theta, grad)
}

// NewFlipCache implements CacheBuilder with the O(h)-per-flip cache: the
// hidden pre-activations theta_k = w_k.s + c_k are maintained under spin
// flips, so Metropolis proposals and TIM local energies cost O(h) each.
func (m *RBM) NewFlipCache(x []int) FlipCache {
	c := &rbmFlipCache{m: m, x: make([]int, m.n), s: m.newScratch()}
	copy(c.x, x)
	c.logPsi = m.logPsiScratch(c.x, c.s)
	return c
}

type rbmFlipCache struct {
	m      *RBM
	x      []int
	s      *rbmScratch // s.S and s.Theta track the current configuration
	logPsi float64
}

func (c *rbmFlipCache) LogPsi() float64 { return c.logPsi }

// Delta computes log psi(x^b) - log psi(x) in O(h) through the shared
// flipDelta closed form.
func (c *rbmFlipCache) Delta(bit int) float64 {
	return c.m.flipDelta(c.s.S, c.s.Theta, bit)
}

func (c *rbmFlipCache) Flip(bit int) {
	d := c.Delta(bit)
	sb := c.s.S[bit]
	for k := 0; k < c.m.h; k++ {
		c.s.Theta[k] -= 2 * c.m.W.At(k, bit) * sb
	}
	c.s.S[bit] = -sb
	c.x[bit] = 1 - c.x[bit]
	c.logPsi += d
}

func (c *rbmFlipCache) State() []int { return c.x }

func (c *rbmFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.logPsi = c.m.logPsiScratch(c.x, c.s)
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *RBM) NewGradEvaluator() GradEvaluator {
	return scratchGrad[*rbmScratch]{m, m.newScratch()}
}

var (
	_ Wavefunction = (*RBM)(nil)
	_ CacheBuilder = (*RBM)(nil)
)
