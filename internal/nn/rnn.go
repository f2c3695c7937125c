package nn

import (
	"math"

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
// The RNN is one of the two cells over the sequential skeleton of seq.go:
// the embedded seqModel owns evaluation, gradients, the tail-only flip
// cache, ancestral sampling and the batched adaptors; this file is the
// parameters, the recurrence step and backpropagation through time.
type RNNWavefunction struct {
	seqModel
	Wh   *tensor.Matrix // h x h recurrence
	Wx   tensor.Vector  // h, input weight (bit is scalar)
	Bh   tensor.Vector  // h, recurrence bias
	S0   tensor.Vector  // h, learned initial state
	V    tensor.Vector  // h, output projection (shared across sites)
	Bout tensor.Vector  // n, per-site output bias
}

// NewRNN builds an RNN wavefunction with n sites and hidden width h.
func NewRNN(n, h int, r *rng.Rand) *RNNWavefunction {
	if n < 1 || h < 1 {
		panic("nn: RNN requires n >= 1 and h >= 1")
	}
	d := h*h + 4*h + n
	theta := tensor.NewVector(d)
	m := &RNNWavefunction{}
	m.seqModel = seqModel{n: n, h: h, theta: theta, cell: m}
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

// initState implements seqCell: s_0 is the learned initial state.
func (m *RNNWavefunction) initState(s tensor.Vector) { copy(s, m.S0) }

// siteZ implements seqCell: the conditional pre-activation for site i.
func (m *RNNWavefunction) siteZ(s tensor.Vector, i int) float64 {
	return m.V.Dot(s) + m.Bout[i]
}

// consume implements seqCell: one recurrence step, the Wh matvec into pre,
// then pre[k] += Wx[k] x + Bh[k]; s[k] = tanh(pre[k]). The bias does not
// depend on the site.
func (m *RNNWavefunction) consume(s, pre tensor.Vector, _, bit int) {
	m.Wh.MulVec(pre, s)
	xb := float64(bit)
	for k := 0; k < m.h; k++ {
		pre[k] += m.Wx[k]*xb + m.Bh[k]
		s[k] = math.Tanh(pre[k])
	}
}

// backward implements seqCell: backpropagation through time over the
// recorded states.
func (m *RNNWavefunction) backward(x []int, grad tensor.Vector, s *seqScratch) {
	h, n := m.h, m.n
	gWh := grad[0 : h*h]
	gWx := grad[h*h : h*h+h]
	gBh := grad[h*h+h : h*h+2*h]
	gS0 := grad[h*h+2*h : h*h+3*h]
	gV := grad[h*h+3*h : h*h+4*h]
	gBout := grad[h*h+4*h:]
	for i := n - 1; i >= 0; i-- {
		si := tensor.Vector(s.States.Row(i))
		dz := float64(x[i]) - 1/(1+math.Exp(-m.siteZ(si, i)))
		gBout[i] += dz
		for k := 0; k < h; k++ {
			gV[k] += dz * si[k]
			s.dS[k] += dz * m.V[k]
		}
		if i == 0 {
			break
		}
		// Push dS back through s_i = tanh(Wh s_{i-1} + Wx x_{i-1} + Bh).
		prev := tensor.Vector(s.States.Row(i - 1))
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
}
