// Package hamiltonian implements the sparse random symmetric matrices the
// paper minimizes: the disordered transverse-field Ising model (TIM, Eq. 11)
// and the diagonal Max-Cut/QUBO Hamiltonian, both presented through the
// "row-s sparse and efficiently row computable" interface of Definition 2.1.
//
// States are bit strings x in {0,1}^n with spin s_i = 1-2x_i in {+1,-1}.
// Every off-diagonal matrix element of this family connects configurations
// differing in exactly one bit, so rows are enumerated as a diagonal value
// plus a list of single-bit flip terms.
package hamiltonian

import (
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// FlipTerm is one off-diagonal row entry: H[x, x^Bit] = Amp (state
// independent for this Hamiltonian family).
type FlipTerm struct {
	Bit int
	Amp float64
}

// Hamiltonian is a real-symmetric 2^n x 2^n matrix with efficiently
// computable rows (Definition 2.1). Off-diagonal entries must be
// non-positive so that the ground eigenvector is non-negative
// (Perron-Frobenius), which is what justifies the psi = sqrt(pi) ansatz.
type Hamiltonian interface {
	// N is the number of sites (the matrix dimension is 2^N).
	N() int
	// Diagonal returns H_xx for the configuration x (bits 0/1, length N).
	Diagonal(x []int) float64
	// FlipTerms returns the off-diagonal row structure: H[x, x^b] for each
	// single-bit flip b. The slice is shared and must not be modified.
	FlipTerms() []FlipTerm
}

// Spin returns s = 1-2x for a single bit.
func Spin(x int) float64 { return float64(1 - 2*x) }

// TIM is the disordered transverse-field Ising Hamiltonian of Eq. 11:
//
//	H = -sum_i (alpha_i X_i + beta_i Z_i) - sum_{i<j} beta_ij Z_i Z_j
//
// with alpha_i >= 0 so Perron-Frobenius applies.
type TIM struct {
	n     int
	Alpha []float64 // length n, transverse fields, >= 0
	Beta  []float64 // length n, longitudinal fields
	BetaJ []float64 // row-major n x n, couplings; only i<j entries used
	flips []FlipTerm
}

// NewTIM builds a TIM from explicit parameters. BetaJ may be nil for a
// coupling-free model; otherwise it must be length n*n and only the strict
// upper triangle is read.
func NewTIM(alpha, beta, betaJ []float64) *TIM {
	n := len(alpha)
	if len(beta) != n {
		panic("hamiltonian: alpha/beta length mismatch")
	}
	if betaJ == nil {
		betaJ = make([]float64, n*n)
	}
	if len(betaJ) != n*n {
		panic("hamiltonian: betaJ must be n*n")
	}
	t := &TIM{n: n, Alpha: alpha, Beta: beta, BetaJ: betaJ}
	for i, a := range alpha {
		if a < 0 {
			panic("hamiltonian: alpha must be non-negative")
		}
		if a != 0 {
			t.flips = append(t.flips, FlipTerm{Bit: i, Amp: -a})
		}
	}
	return t
}

// RandomTIM samples the paper's disordered instance: alpha_i ~ U(0,1),
// beta_i ~ U(-1,1), beta_ij ~ U(-1,1), each sampled once and fixed.
func RandomTIM(n int, r *rng.Rand) *TIM {
	alpha := make([]float64, n)
	beta := make([]float64, n)
	betaJ := make([]float64, n*n)
	r.FillUniform(alpha, 0, 1)
	r.FillUniform(beta, -1, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			betaJ[i*n+j] = r.Uniform(-1, 1)
		}
	}
	return NewTIM(alpha, beta, betaJ)
}

// N implements Hamiltonian.
func (t *TIM) N() int { return t.n }

// Diagonal implements Hamiltonian:
// H_xx = -sum_i beta_i s_i - sum_{i<j} beta_ij s_i s_j.
func (t *TIM) Diagonal(x []int) float64 {
	var e float64
	for i := 0; i < t.n; i++ {
		si := Spin(x[i])
		e -= float64(t.Beta[i] * si)
		row := t.BetaJ[i*t.n : (i+1)*t.n]
		for j := i + 1; j < t.n; j++ {
			if row[j] != 0 {
				e -= float64(row[j] * si * Spin(x[j]))
			}
		}
	}
	return e
}

// FlipTerms implements Hamiltonian: H[x, x^i] = -alpha_i.
func (t *TIM) FlipTerms() []FlipTerm { return t.flips }

// DiagonalDelta returns H_{x'x'} - H_xx where x' is x with bit b flipped.
// Cost O(n) instead of O(n^2); used by fast local-energy paths and tests.
func (t *TIM) DiagonalDelta(x []int, b int) float64 {
	sb := Spin(x[b])
	// Flipping b negates s_b: delta = 2 beta_b s_b + 2 s_b sum_{j!=b} beta_bj s_j.
	d := 2 * t.Beta[b] * sb
	for j := 0; j < t.n; j++ {
		if j == b {
			continue
		}
		var c float64
		if b < j {
			c = t.BetaJ[b*t.n+j]
		} else {
			c = t.BetaJ[j*t.n+b]
		}
		if c != 0 {
			d += float64(2 * c * sb * Spin(x[j]))
		}
	}
	return d
}

// MaxCut is the diagonal Hamiltonian whose ground state encodes the maximum
// cut of a graph: H_xx = (1/4) sum_{i<j} L_ij s_i s_j, so that
// cut(x) = W/2 - 2*H_xx with W the total edge weight. Minimizing the energy
// maximizes the cut.
type MaxCut struct {
	G *graph.Graph
}

// NewMaxCut wraps a graph as a Hamiltonian.
func NewMaxCut(g *graph.Graph) *MaxCut { return &MaxCut{G: g} }

// N implements Hamiltonian.
func (m *MaxCut) N() int { return m.G.N }

// Diagonal implements Hamiltonian.
func (m *MaxCut) Diagonal(x []int) float64 {
	var e float64
	for _, ed := range m.G.Edges {
		e += float64(ed.W * Spin(x[ed.U]) * Spin(x[ed.V]) / 4)
	}
	return e
}

// FlipTerms implements Hamiltonian; the Max-Cut matrix is diagonal.
func (m *MaxCut) FlipTerms() []FlipTerm { return nil }

// CutFromEnergy converts an energy H_xx to the corresponding cut value.
func (m *MaxCut) CutFromEnergy(e float64) float64 {
	return float64(m.G.TotalWeight()/2) - float64(2*e)
}

// Sparsity returns the row sparsity parameter s: the maximum number of
// non-zero entries in any row (diagonal plus flips).
func Sparsity(h Hamiltonian) int { return 1 + len(h.FlipTerms()) }

// Dense materializes the full 2^n x 2^n matrix (row-major). Intended for
// validation with small n; it panics for n > 14.
func Dense(h Hamiltonian) []float64 {
	n := h.N()
	if n > 14 {
		panic("hamiltonian: Dense limited to n <= 14")
	}
	dim := 1 << uint(n)
	out := make([]float64, dim*dim)
	x := make([]int, n)
	for ix := 0; ix < dim; ix++ {
		IndexToBits(ix, x)
		out[ix*dim+ix] = h.Diagonal(x)
		for _, ft := range h.FlipTerms() {
			iy := ix ^ (1 << uint(ft.Bit))
			out[ix*dim+iy] = ft.Amp
		}
	}
	return out
}

// Apply computes out = H v on the full 2^n-dimensional space without
// materializing the matrix. v and out must have length 2^n and not alias.
func Apply(h Hamiltonian, v, out []float64) {
	n := h.N()
	dim := 1 << uint(n)
	if len(v) != dim || len(out) != dim {
		panic("hamiltonian: Apply dimension mismatch")
	}
	flips := h.FlipTerms()
	x := make([]int, n)
	for ix := 0; ix < dim; ix++ {
		IndexToBits(ix, x)
		acc := h.Diagonal(x) * v[ix]
		for _, ft := range flips {
			acc += float64(ft.Amp * v[ix^(1<<uint(ft.Bit))])
		}
		out[ix] = acc
	}
}

// IndexToBits writes the binary expansion of ix into x (bit i of ix becomes
// x[i], i.e. site 0 is the least significant bit).
func IndexToBits(ix int, x []int) {
	for i := range x {
		x[i] = (ix >> uint(i)) & 1
	}
}

// BitsToIndex is the inverse of IndexToBits.
func BitsToIndex(x []int) int {
	ix := 0
	for i, b := range x {
		ix |= b << uint(i)
	}
	return ix
}
