package sampler

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Gibbs is a block Gibbs sampler for the RBM wavefunction's Born
// distribution pi(s) ~ psi(s)^2, one of the MCMC variations the paper
// cites (Geman & Geman). It exploits the RBM's bipartite structure: since
//
//	psi(s)^2 = exp(2 a.s) prod_k cosh^2(theta_k),  theta_k = w_k.s + c_k
//
// and cosh^2(theta) = (1/4) sum_{h1,h2 in {+-1}} exp((h1+h2) theta), the
// squared amplitude is the marginal of a joint distribution over s and two
// independent hidden spins per hidden unit. Alternating exact block updates
//
//	P(h_{k,j} = +1 | s) = sigma(2 theta_k(s))
//	P(s_i   = +1 | h) = sigma(2 (2 a_i + sum_k (h_{k,1}+h_{k,2}) W_{ki}))
//
// update every coordinate per sweep — often mixing far better than
// single-bit-flip Metropolis, at O(nh) per sweep.
//
// Like MCMC, the sweeps are sequential per chain and stay scalar; the
// local-energy and gradient phases downstream of the sampled batch run
// through the RBM's nn.BatchEvaluator, bitwise what the scalar kernels give.
type Gibbs struct{ *markov }

// NewGibbs builds a block Gibbs sampler over an RBM. MCMCConfig carries
// over with BurnIn counted in sweeps; zero-valued fields get defaults: 2
// chains, burn-in 20 sweeps (full-coordinate sweeps mix far faster than
// single flips), no thinning.
func NewGibbs(model *nn.RBM, cfg MCMCConfig, r *rng.Rand) *Gibbs {
	return &Gibbs{newMarkov(model.NumSites(), blockGibbs(model), cfg, 20, r)}
}

// blockGibbs is the block-update kernel: every transition is one sweep over
// x in place, and a Gibbs move is always accepted.
func blockGibbs(m *nn.RBM) kernel {
	return func(x []int, rnd *rng.Rand) (func() bool, func() []int) {
		spins := make([]float64, m.NumSites())
		hsum := make([]float64, m.Hidden())
		return func() bool {
			sweep(m, x, spins, hsum, rnd)
			return true
		}, func() []int { return x }
	}
}

// sweep performs one full block update (all hidden, then all visible).
// spins and hsum are workspaces of length n and h respectively.
func sweep(m *nn.RBM, x []int, spins, hsum []float64, rnd *rng.Rand) {
	n, h := m.NumSites(), m.Hidden()
	for i, b := range x {
		spins[i] = float64(1 - 2*b)
	}
	// Sample H_k = h_{k,1} + h_{k,2} given s: each spin is +1 w.p.
	// sigma(2 theta_k).
	for k := 0; k < h; k++ {
		theta := m.C[k]
		row := m.W.Row(k)
		for i := 0; i < n; i++ {
			theta += float64(row[i] * spins[i])
		}
		p := 1 / (1 + math.Exp(-2*theta))
		var H float64
		if rnd.Float64() < p {
			H++
		} else {
			H--
		}
		if rnd.Float64() < p {
			H++
		} else {
			H--
		}
		hsum[k] = H
	}
	// Sample s_i given h.
	for i := 0; i < n; i++ {
		field := 2 * m.A[i]
		for k := 0; k < h; k++ {
			if hsum[k] != 0 {
				field += float64(hsum[k] * m.W.At(k, i))
			}
		}
		p := 1 / (1 + math.Exp(-2*field))
		if rnd.Float64() < p {
			x[i] = 0 // s_i = +1
		} else {
			x[i] = 1
		}
	}
}

var _ Sampler = (*Gibbs)(nil)
