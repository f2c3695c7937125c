package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// MADE is the masked autoencoder for distribution estimation (Germain et
// al.) used as an autoregressive neural quantum state, matching the paper's
// architecture:
//
//	Input -> MaskedFC1 -> ReLU -> MaskedFC2 -> Sigmoid -> Output
//
// with a single hidden layer of width h. Output j is the conditional
// probability p_j = P(x_j = 1 | x_0..x_{j-1}); the masks enforce that p_j
// depends only on earlier inputs (natural ordering). The model represents
// the non-negative wavefunction psi(x) = sqrt(pi(x)).
//
// Parameter count d = 2hn + h + n, laid out [W1 | b1 | W2 | b2] in one flat
// vector; the matrix and bias views alias that vector.
type MADE struct {
	n, h  int
	theta tensor.Vector
	// Layer views into theta.
	W1 *tensor.Matrix // h x n
	B1 tensor.Vector  // h
	W2 *tensor.Matrix // n x h
	B2 tensor.Vector  // n
	// Binary masks (not trained).
	M1 *tensor.Matrix // h x n: M1[k][i] = 1 iff deg(k) >= i+1
	M2 *tensor.Matrix // n x h: M2[j][k] = 1 iff j+1 > deg(k)
	// deg[k] in 1..n-1 is the hidden unit's autoregressive degree.
	deg []int
	// flipRuns[b] lists the maximal contiguous ranges [lo, hi) of hidden
	// units whose mask sees input bit b (deg(k) > b) — the only hidden
	// columns a flip of bit b can change, and therefore the only layer-1
	// columns the tail-only flip evaluation recomputes (scalar and batched
	// alike; with the cyclic degree assignment each period of n-1 units
	// contributes one run).
	flipRuns [][][2]int
	// runsAscending records that every flipRuns[b] range starts at degree
	// b+1 and increments by one per unit (true for the cyclic assignment).
	// When set, input i's mask support inside a run of flipRuns[b] is the
	// suffix starting at run[0]+(i-b), letting the batched tail fold skip
	// the masked-zero (+/-0, exact no-op) additions; when not, the folds
	// fall back to full-width adds, which are bitwise identical.
	runsAscending bool
	// Masked-weight cache for the batched GEMM path: wm1t/wm2t hold the
	// TRANSPOSED elementwise products (W1.M1)^T (n x h) and (W2.M2)^T
	// (h x n), materialized once per parameter version and reused by every
	// batched evaluation until the optimizer mutates theta. The transposed
	// layout lets the batched forward run as dst = X * (W.M)^T in the ikj
	// loop order, which keeps independent accumulators per output column
	// (throughput-bound instead of latency-bound) while still summing each
	// element in the scalar kernels' ascending contraction order. The
	// embedded derivedCache says when they are stale; see prewarmCaches.
	derivedCache
	wm1t, wm2t *tensor.Matrix
}

// madeScratch holds per-worker forward/backward buffers so concurrent
// evaluation never shares mutable state.
type madeScratch struct {
	Z1, A tensor.Vector // hidden pre-activation and activation (h)
	Z2    tensor.Vector // output pre-activation (n)
	dZ2   tensor.Vector // n
	dA    tensor.Vector // h
	xf    tensor.Vector // float copy of input bits (n)
}

// HiddenMADE is the paper's latent-size rule h = 5 (ln n)^2, rounded (at
// least 1).
func HiddenMADE(n int) int {
	l := math.Log(float64(n))
	return max(int(math.Round(5*l*l)), 1)
}

// NewMADE builds a MADE with n input sites and hidden width h, with masks
// assigned deterministically (degrees cycle through 1..n-1) and weights
// initialized U(-1/sqrt(fan-in), +1/sqrt(fan-in)) from r.
func NewMADE(n, h int, r *rng.Rand) *MADE {
	if n < 1 || h < 1 {
		panic("nn: MADE requires n >= 1 and h >= 1")
	}
	d := 2*h*n + h + n
	theta := tensor.NewVector(d)
	m := &MADE{n: n, h: h, theta: theta}
	off := 0
	m.W1 = &tensor.Matrix{Rows: h, Cols: n, Data: theta[off : off+h*n]}
	off += h * n
	m.B1 = theta[off : off+h]
	off += h
	m.W2 = &tensor.Matrix{Rows: n, Cols: h, Data: theta[off : off+n*h]}
	off += n * h
	m.B2 = theta[off : off+n]

	// Hidden degrees cycle 1..n-1 (n=1 degenerates to all-zero masks and a
	// bias-only model, which is still the correct autoregressive family).
	m.deg = make([]int, h)
	m.M1 = tensor.NewMatrix(h, n)
	m.M2 = tensor.NewMatrix(n, h)
	for k := 0; k < h; k++ {
		if n > 1 {
			m.deg[k] = 1 + k%(n-1)
		}
		for i := 0; i < n; i++ {
			if m.deg[k] >= i+1 {
				m.M1.Set(k, i, 1)
			}
		}
		for j := 0; j < n; j++ {
			if j+1 > m.deg[k] && m.deg[k] > 0 {
				m.M2.Set(j, k, 1)
			}
		}
	}

	m.flipRuns = make([][][2]int, n)
	m.runsAscending = true
	for b := 0; b < n; b++ {
		for k := 0; k < h; k++ {
			if m.deg[k] <= b {
				continue
			}
			runs := m.flipRuns[b]
			if len(runs) > 0 && runs[len(runs)-1][1] == k {
				runs[len(runs)-1][1] = k + 1
			} else {
				runs = append(runs, [2]int{k, k + 1})
			}
			m.flipRuns[b] = runs
		}
		for _, run := range m.flipRuns[b] {
			for k := run[0]; k < run[1]; k++ {
				if m.deg[k] != b+1+(k-run[0]) {
					m.runsAscending = false
				}
			}
		}
	}

	uniformInit(m.W1.Data, n, r)
	uniformInit(m.B1, n, r)
	uniformInit(m.W2.Data, h, r)
	uniformInit(m.B2, h, r)
	return m
}

// prewarmCaches materializes the masked-weight cache for the current
// parameters. Coordinators call it (via nn.Prewarm) before fanning work out
// to workers so no worker pays the rebuild; rebuilds are mutex-serialized
// either way, so this is a latency optimization, not a safety requirement.
func (m *MADE) prewarmCaches() { m.maskedWeights() }

// maskedWeights returns (W1.M1)^T and (W2.M2)^T, rebuilding the cached
// products if the parameters changed since the last build. Because the
// masks hold exact 0/1 entries, each cached element w*m is either w or a
// signed zero — bit-for-bit the first factor of the scalar kernel's w*m*x
// product — so GEMMs over the cache reproduce MaskedMulVec exactly
// (multiplication commutes bitwise, and transposition is pure layout).
// Safe for concurrent use (see derivedCache): the cached matrices are
// immutable between InvalidateParams calls, so returned pointers stay valid
// for the whole parallel section.
func (m *MADE) maskedWeights() (wm1t, wm2t *tensor.Matrix) {
	m.ensure(func() {
		if m.wm1t == nil {
			m.wm1t = tensor.NewMatrix(m.n, m.h)
			m.wm2t = tensor.NewMatrix(m.h, m.n)
		}
		for k := 0; k < m.h; k++ {
			for i := 0; i < m.n; i++ {
				m.wm1t.Data[i*m.h+k] = m.W1.Data[k*m.n+i] * m.M1.Data[k*m.n+i]
			}
		}
		for j := 0; j < m.n; j++ {
			for k := 0; k < m.h; k++ {
				m.wm2t.Data[k*m.n+j] = m.W2.Data[j*m.h+k] * m.M2.Data[j*m.h+k]
			}
		}
	})
	return m.wm1t, m.wm2t
}

// newScratch allocates evaluation buffers for one worker.
func (m *MADE) newScratch() *madeScratch {
	return &madeScratch{
		Z1:  tensor.NewVector(m.h),
		A:   tensor.NewVector(m.h),
		Z2:  tensor.NewVector(m.n),
		dZ2: tensor.NewVector(m.n),
		dA:  tensor.NewVector(m.h),
		xf:  tensor.NewVector(m.n),
	}
}

// NumSites implements Wavefunction.
func (m *MADE) NumSites() int { return m.n }

// Hidden returns the hidden-layer width h.
func (m *MADE) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *MADE) NumParams() int { return len(m.theta) }

// Params implements Wavefunction; the returned vector aliases the model.
func (m *MADE) Params() tensor.Vector { return m.theta }

// forward runs the masked network on x, filling s.Z1, s.A and s.Z2.
// Output probabilities are sigma(s.Z2) but are not materialized; the
// log-probability path works on pre-activations for numerical stability.
func (m *MADE) forward(x []int, s *madeScratch) {
	for i, b := range x {
		s.xf[i] = float64(b)
	}
	m.W1.MaskedMulVec(s.Z1, s.xf, m.M1)
	s.Z1.Add(m.B1)
	copy(s.A, s.Z1)
	tensor.ReLU(s.A)
	m.W2.MaskedMulVec(s.Z2, s.A, m.M2)
	s.Z2.Add(m.B2)
}

// logProbFromZ2 computes log pi(x) = sum_j [x_j ln p_j + (1-x_j) ln(1-p_j)]
// from output pre-activations.
func logProbFromZ2(x []int, z2 tensor.Vector) float64 {
	var lp float64
	for j, b := range x {
		lp += condTerm(z2[j], b)
	}
	return lp
}

// logProbScratch evaluates log pi(x) using caller-owned buffers.
func (m *MADE) logProbScratch(x []int, s *madeScratch) float64 {
	m.forward(x, s)
	return logProbFromZ2(x, s.Z2)
}

// LogProb implements Normalized. It allocates scratch; hot paths should use
// logProbScratch with a per-worker scratch.
func (m *MADE) LogProb(x []int) float64 {
	return m.logProbScratch(x, m.newScratch())
}

// LogPsi implements Wavefunction: log psi = (1/2) log pi.
func (m *MADE) LogPsi(x []int) float64 { return 0.5 * m.LogProb(x) }

// logPsiScratch is the buffer-reusing variant of LogPsi.
func (m *MADE) logPsiScratch(x []int, s *madeScratch) float64 {
	return 0.5 * m.logProbScratch(x, s)
}

// conditional returns P(x_i = 1 | x_<i) on caller-owned buffers: one full
// forward pass, the paper's Algorithm 1 step. Bits at positions >= i are
// ignored by masking.
func (m *MADE) conditional(x []int, i int, s *madeScratch) float64 {
	m.forward(x, s)
	return 1 / (1 + math.Exp(-s.Z2[i]))
}

// conditionalRow computes P(x_i = 1 | x_<i) in O(h) given hidden
// pre-activations z1 that already reflect x_<i (the incremental sampling
// fast path used by NewIncrementalEvaluator).
func (m *MADE) conditionalRow(z1 tensor.Vector, i int) float64 {
	row := m.W2.Row(i)
	mrow := m.M2.Row(i)
	z := m.B2[i]
	for k, w := range row {
		if mrow[k] != 0 {
			a := z1[k]
			if a > 0 {
				z += w * a
			}
		}
	}
	return 1 / (1 + math.Exp(-z))
}

// accumulateInput adds bit i's contribution to the hidden pre-activation
// vector z1 (incremental sampling fast path). z1 must start as a copy of B1.
func (m *MADE) accumulateInput(z1 tensor.Vector, i, bit int) {
	if bit == 0 {
		return
	}
	for k := 0; k < m.h; k++ {
		if m.M1.At(k, i) != 0 {
			z1[k] += m.W1.At(k, i)
		}
	}
}

// gradFromForward runs the analytic backward pass from an already computed
// forward state (z1 pre-activation, a activation, z2 output pre-activation)
// into grad. It is shared verbatim by the scalar and batched gradient paths
// — identical forward bytes in, identical gradient bytes out — which is
// how GradLogPsiBatch inherits the scalar path's exact values. dz2 (n) and
// da (h) are caller-owned scratch.
func (m *MADE) gradFromForward(x []int, z1, a, z2, dz2, da, grad tensor.Vector) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	// dlogpi/dz2_j = x_j - sigma(z2_j).
	for j, b := range x {
		dz2[j] = float64(b) - 1/(1+math.Exp(-z2[j]))
	}
	// dA = (M2 .* W2)^T dZ2.
	for k := range da {
		da[k] = 0
	}
	for j := 0; j < m.n; j++ {
		dj := dz2[j]
		if dj == 0 {
			continue
		}
		row := m.W2.Row(j)
		mrow := m.M2.Row(j)
		for k := range row {
			if mrow[k] != 0 {
				da[k] += row[k] * dj
			}
		}
	}
	// Views into grad with the same layout as theta.
	h, n := m.h, m.n
	gW1 := grad[0 : h*n]
	gB1 := grad[h*n : h*n+h]
	gW2 := grad[h*n+h : h*n+h+n*h]
	gB2 := grad[h*n+h+n*h:]
	// Output layer.
	for j := 0; j < n; j++ {
		dj := dz2[j]
		gB2[j] = dj
		base := j * h
		mrow := m.M2.Row(j)
		for k := 0; k < h; k++ {
			if mrow[k] != 0 {
				gW2[base+k] = dj * a[k]
			} else {
				gW2[base+k] = 0
			}
		}
	}
	// Hidden layer through ReLU.
	for k := 0; k < h; k++ {
		dz1 := da[k]
		if z1[k] <= 0 {
			dz1 = 0
		}
		gB1[k] = dz1
		base := k * n
		mrow := m.M1.Row(k)
		for i := 0; i < n; i++ {
			if mrow[i] != 0 && x[i] == 1 {
				gW1[base+i] = dz1
			} else {
				gW1[base+i] = 0
			}
		}
	}
}

// GradLogPsi implements Wavefunction: grad log psi = (1/2) grad log pi.
func (m *MADE) GradLogPsi(x []int, grad tensor.Vector) {
	m.gradLogPsiScratch(x, grad, m.newScratch())
}

// gradLogPsiScratch is the buffer-reusing variant of GradLogPsi: the
// backward pass of log pi, halved.
func (m *MADE) gradLogPsiScratch(x []int, grad tensor.Vector, s *madeScratch) {
	m.forward(x, s)
	m.gradFromForward(x, s.Z1, s.A, s.Z2, s.dZ2, s.dA, grad)
	grad.Scale(0.5)
}

// freshHiddenUnit recomputes hidden pre-activation k of the fresh forward
// pass for the float-encoded configuration xf: the masked row dot in
// ascending input order followed by the bias, exactly the per-element
// arithmetic of MaskedMulVec + Vector.Add in forward. Used by the tail-only
// flip evaluation to refresh only the hidden units whose mask sees the
// flipped bit.
func (m *MADE) freshHiddenUnit(k int, xf tensor.Vector) float64 {
	row := m.W1.Row(k)
	mrow := m.M1.Row(k)
	var s float64
	for i, w := range row {
		s += w * mrow[i] * xf[i]
	}
	return s + m.B1[k]
}

// freshOutputUnit recomputes output pre-activation j of the fresh forward
// pass from hidden activations a, mirroring forward's layer-2 MaskedMulVec
// + bias element for element.
func (m *MADE) freshOutputUnit(j int, a tensor.Vector) float64 {
	row := m.W2.Row(j)
	mrow := m.M2.Row(j)
	var s float64
	for k, w := range row {
		s += w * mrow[k] * a[k]
	}
	return s + m.B2[j]
}

// NewFlipCache implements CacheBuilder with the mask-aware TAIL-ONLY cache.
//
// Flip-cache convention (load-bearing; the batched FlipLogPsiBatch path
// reproduces it bit for bit): the cache holds the base configuration's
// FRESH forward state — z1/a/z2 exactly as forward computes them — plus the
// prefix sums p[j] of the log-probability fold, p[j] = sum of the first j
// log-sigmoid terms accumulated in the ascending site order logProbFromZ2
// uses. LogPsi() is therefore bitwise identical to a fresh LogPsi(x).
//
// The autoregressive masks guarantee that flipping bit b leaves every
// hidden unit with deg(k) <= b and every output site j < b bitwise
// untouched (output j only sees inputs i < j through hidden units of
// degree <= j). Delta and Flip exploit that: they recompute only the
// hidden units whose mask row contains bit b, only the output sites
// j > b (site b's pre-activation is unchanged; only its term re-branches
// on the flipped bit), and resume the log-probability fold from p[b] —
// halving layer-2 work and the log-sigmoid tail on average while staying
// bitwise identical to a fresh forward pass of the flipped configuration.
// The cache also implements tailFlipCache: FlipLogPsi(b) returns that
// absolute flipped log-psi, and Delta(b) = FlipLogPsi(b) - LogPsi().
func (m *MADE) NewFlipCache(x []int) FlipCache {
	c := &madeFlipCache{m: m, s: m.newScratch(), x: make([]int, m.n),
		p:  tensor.NewVector(m.n + 1),
		za: tensor.NewVector(m.h), xff: tensor.NewVector(m.n)}
	c.Reset(x)
	return c
}

type madeFlipCache struct {
	m *MADE
	s *madeScratch // s.Z1, s.A, s.Z2 hold the base FRESH forward state
	x []int
	// p[j] is the log-probability fold after the first j sites, in
	// logProbFromZ2's exact accumulation order; p[n] = log pi(x).
	p      tensor.Vector
	za     tensor.Vector // scratch: flipped hidden activations (Delta only)
	xff    tensor.Vector // scratch: float-encoded flipped configuration
	logPsi float64
}

func (c *madeFlipCache) LogPsi() float64 { return c.logPsi }

// tailLogProb computes log pi of the base configuration with bit flipped,
// evaluating only the tail: hidden units seeing the bit are refreshed from
// a fresh masked dot, output sites j > bit are refreshed from the mixed
// activations, and the fold resumes from the cached prefix p[bit]. The
// result is bitwise identical to a fresh forward + logProbFromZ2 of the
// flipped configuration. za receives the flipped activations (length h).
func (c *madeFlipCache) tailLogProb(bit int, za tensor.Vector) float64 {
	m := c.m
	nb := 1 - c.x[bit]
	copy(c.xff, c.s.xf)
	c.xff[bit] = float64(nb)
	copy(za, c.s.A)
	for k := 0; k < m.h; k++ {
		if m.M1.At(k, bit) != 0 {
			z := m.freshHiddenUnit(k, c.xff)
			if z < 0 {
				z = 0
			}
			za[k] = z
		}
	}
	lp := c.p[bit]
	// Site bit: pre-activation unchanged by the mask, term re-branches on
	// the flipped value.
	lp += condTerm(c.s.Z2[bit], nb)
	for j := bit + 1; j < m.n; j++ {
		z := m.freshOutputUnit(j, za)
		lp += condTerm(z, c.x[j])
	}
	return lp
}

// FlipLogPsi implements tailFlipCache: the absolute log psi of the current
// configuration with bit flipped, bitwise identical to a fresh LogPsi.
func (c *madeFlipCache) FlipLogPsi(bit int) float64 {
	return 0.5 * c.tailLogProb(bit, c.za)
}

func (c *madeFlipCache) Delta(bit int) float64 {
	return c.FlipLogPsi(bit) - c.logPsi
}

// Flip commits bit, updating only the tail of the cached fresh-forward
// state: hidden units seeing the bit, output sites j > bit, and the prefix
// sums from p[bit+1] on. Everything it leaves in place is bitwise what a
// full Reset would recompute.
func (c *madeFlipCache) Flip(bit int) {
	m := c.m
	nb := 1 - c.x[bit]
	c.x[bit] = nb
	c.s.xf[bit] = float64(nb)
	for k := 0; k < m.h; k++ {
		if m.M1.At(k, bit) != 0 {
			z := m.freshHiddenUnit(k, c.s.xf)
			c.s.Z1[k] = z
			if z < 0 {
				z = 0
			}
			c.s.A[k] = z
		}
	}
	lp := c.p[bit]
	lp += condTerm(c.s.Z2[bit], nb)
	c.p[bit+1] = lp
	for j := bit + 1; j < m.n; j++ {
		z := m.freshOutputUnit(j, c.s.A)
		c.s.Z2[j] = z
		lp += condTerm(z, c.x[j])
		c.p[j+1] = lp
	}
	c.logPsi = 0.5 * lp
}

func (c *madeFlipCache) State() []int { return c.x }

func (c *madeFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.m.forward(c.x, c.s)
	var lp float64
	c.p[0] = 0
	for j, b := range c.x {
		lp += condTerm(c.s.Z2[j], b)
		c.p[j+1] = lp
	}
	c.logPsi = 0.5 * lp
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *MADE) NewGradEvaluator() GradEvaluator {
	return scratchGrad[*madeScratch]{m, m.newScratch()}
}

var (
	_ CacheBuilder  = (*MADE)(nil)
	_ tailFlipCache = (*madeFlipCache)(nil)
)
