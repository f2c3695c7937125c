package nn

import (
	"math"

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
// NADE is one of the two cells over the sequential skeleton of seq.go: the
// embedded seqModel owns evaluation, gradients, the tail-only flip cache,
// ancestral sampling and the batched adaptors; this file is the parameters
// and the accumulation step.
type NADE struct {
	seqModel
	W *tensor.Matrix // h x n, input-to-hidden accumulation weights
	C tensor.Vector  // h, initial hidden state
	V *tensor.Matrix // n x h, per-site output weights
	B tensor.Vector  // n, output biases
}

// NewNADE builds a NADE with n sites and hidden width h.
func NewNADE(n, h int, r *rng.Rand) *NADE {
	if n < 1 || h < 1 {
		panic("nn: NADE requires n >= 1 and h >= 1")
	}
	d := 2*h*n + h + n
	theta := tensor.NewVector(d)
	m := &NADE{}
	m.seqModel = seqModel{n: n, h: h, theta: theta, cell: m}
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

// initState implements seqCell: a_0 = c.
func (m *NADE) initState(a tensor.Vector) { copy(a, m.C) }

// siteZ implements seqCell: the output pre-activation for site i given the
// current hidden accumulator, V_i . relu(a) + b_i, with the ReLU applied as
// a skip-on-nonpositive: a relu(a_k) = +0 term is an exact no-op in the
// ascending dot chain (a sum that starts at +0 never becomes -0), so the
// value is bitwise the dot over a materialized activation, and a trained
// model's mostly-inactive hidden units cost a compare, not a multiply-add.
func (m *NADE) siteZ(a tensor.Vector, i int) float64 {
	var z float64
	for k, v := range m.V.Row(i) {
		if av := a[k]; av > 0 {
			z += v * av
		}
	}
	return z + m.B[i]
}

// consume implements seqCell: fold site i's bit into the accumulator.
func (m *NADE) consume(a, _ tensor.Vector, i, bit int) {
	if bit == 0 {
		return
	}
	for k := 0; k < m.h; k++ {
		a[k] += m.W.At(k, i)
	}
}

// backward implements seqCell. Backprop through the accumulation chain:
// dz_i flows to V_i, b_i and relu(a_i); the hidden-state gradient dS is then
// pushed back through every earlier accumulation step.
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
				gV[base+k] += dz * av
				s.dS[k] += dz * vrow[k]
			}
		}
	}
	copy(gC, s.dS)
}
