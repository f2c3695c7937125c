package nn

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

func TestMADEParamLayout(t *testing.T) {
	m := NewMADE(5, 7, rng.New(1))
	if m.NumParams() != 2*7*5+7+5 {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), 2*7*5+7+5)
	}
	// Views alias the flat vector: writing through Params must change W1.
	p := m.Params()
	p[0] = 42
	if m.W1.At(0, 0) != 42 {
		t.Fatal("W1 does not alias Params")
	}
	p[len(p)-1] = 7
	if m.B2[4] != 7 {
		t.Fatal("B2 does not alias Params tail")
	}
}

func TestMADENormalization(t *testing.T) {
	// sum_x pi(x) must equal 1 for any parameters: the defining property of
	// the autoregressive construction.
	for _, n := range []int{1, 2, 4, 8} {
		m := NewMADE(n, 6, rng.New(uint64(n)))
		// Perturb weights to a non-trivial point.
		r := rng.New(77)
		for i := range m.Params() {
			m.Params()[i] += r.Uniform(-1, 1)
		}
		var total float64
		x := make([]int, n)
		for ix := 0; ix < 1<<uint(n); ix++ {
			hamiltonian.IndexToBits(ix, x)
			total += math.Exp(m.LogProb(x))
		}
		if math.Abs(total-1) > 1e-10 {
			t.Fatalf("n=%d sum_x pi(x) = %v, want 1", n, total)
		}
	}
}

func TestMADEAutoregressiveProperty(t *testing.T) {
	// Output j must not depend on inputs at positions >= j.
	r := rng.New(3)
	n, h := 7, 11
	m := NewMADE(n, h, r)
	s := m.newScratch()
	x := make([]int, n)
	y := make([]int, n)
	for trial := 0; trial < 200; trial++ {
		r.FillBits(x)
		copy(y, x)
		j := r.Intn(n)
		// Toggle an arbitrary subset of positions >= j.
		for i := j; i < n; i++ {
			if r.Bit() == 1 {
				y[i] = 1 - y[i]
			}
		}
		m.forward(x, s)
		zx := s.Z2[j]
		m.forward(y, s)
		zy := s.Z2[j]
		if zx != zy {
			t.Fatalf("output %d depends on inputs >= %d: %v vs %v", j, j, zx, zy)
		}
	}
}

func TestMADEConditionalConsistency(t *testing.T) {
	// pi(x) must equal prod_i Conditional(x, i)-style factors.
	r := rng.New(4)
	n := 6
	m := NewMADE(n, 9, r)
	s := m.newScratch()
	x := make([]int, n)
	for trial := 0; trial < 50; trial++ {
		r.FillBits(x)
		var lp float64
		for i := 0; i < n; i++ {
			p := m.conditional(x, i, s)
			if x[i] == 1 {
				lp += math.Log(p)
			} else {
				lp += math.Log(1 - p)
			}
		}
		if math.Abs(lp-m.logProbScratch(x, s)) > 1e-10 {
			t.Fatalf("chain-rule product %v != LogProb %v", lp, m.logProbScratch(x, s))
		}
	}
}

func TestMADEConditionalRowMatchesForward(t *testing.T) {
	// The O(h) incremental conditional must agree with the full forward
	// pass when z1 reflects the prefix.
	r := rng.New(5)
	n, h := 8, 13
	m := NewMADE(n, h, r)
	s := m.newScratch()
	x := make([]int, n)
	r.FillBits(x)
	z1 := m.B1.Clone()
	for i := 0; i < n; i++ {
		fast := m.conditionalRow(z1, i)
		slow := m.conditional(x, i, s)
		if math.Abs(fast-slow) > 1e-12 {
			t.Fatalf("bit %d: incremental %v vs forward %v", i, fast, slow)
		}
		m.accumulateInput(z1, i, x[i])
	}
}

func TestMADEGradMatchesFiniteDifference(t *testing.T) {
	r := rng.New(6)
	n, h := 5, 4
	m := NewMADE(n, h, r)
	s := m.newScratch()
	x := []int{1, 0, 1, 1, 0}
	grad := tensor.NewVector(m.NumParams())
	m.gradLogPsiScratch(x, grad, s)
	const eps = 1e-6
	p := m.Params()
	for i := 0; i < m.NumParams(); i++ {
		orig := p[i]
		p[i] = orig + eps
		fp := m.logPsiScratch(x, s)
		p[i] = orig - eps
		fm := m.logPsiScratch(x, s)
		p[i] = orig
		fd := (fp - fm) / (2 * eps)
		if math.Abs(fd-grad[i]) > 1e-5 {
			t.Fatalf("param %d: analytic %v vs finite-diff %v", i, grad[i], fd)
		}
	}
}

func TestMADEGradLogProbIsTwiceGradLogPsi(t *testing.T) {
	r := rng.New(7)
	m := NewMADE(6, 5, r)
	s := m.newScratch()
	x := []int{0, 1, 1, 0, 1, 0}
	g1 := tensor.NewVector(m.NumParams())
	g2 := tensor.NewVector(m.NumParams())
	m.forward(x, s)
	m.gradFromForward(x, s.Z1, s.A, s.Z2, s.dZ2, s.dA, g1)
	m.gradLogPsiScratch(x, g2, s)
	for i := range g1 {
		if math.Abs(g1[i]-2*g2[i]) > 1e-14 {
			t.Fatalf("grad log pi != 2 grad log psi at %d", i)
		}
	}
}

func TestMADEFlipCache(t *testing.T) {
	r := rng.New(8)
	n := 7
	m := NewMADE(n, 6, r)
	x := make([]int, n)
	r.FillBits(x)
	c := m.NewFlipCache(x)
	if math.Abs(c.LogPsi()-m.LogPsi(x)) > 1e-12 {
		t.Fatal("cache LogPsi mismatch at init")
	}
	for trial := 0; trial < 30; trial++ {
		b := r.Intn(n)
		y := append([]int(nil), c.State()...)
		y[b] = 1 - y[b]
		wantDelta := m.LogPsi(y) - m.LogPsi(c.State())
		if got := c.Delta(b); math.Abs(got-wantDelta) > 1e-10 {
			t.Fatalf("Delta(%d) = %v, want %v", b, got, wantDelta)
		}
		// Delta must not mutate state.
		if math.Abs(c.LogPsi()-m.LogPsi(c.State())) > 1e-12 {
			t.Fatal("Delta mutated cache state")
		}
		c.Flip(b)
		if math.Abs(c.LogPsi()-m.LogPsi(c.State())) > 1e-10 {
			t.Fatal("Flip left cache inconsistent")
		}
	}
}

func TestMADEDegreesValid(t *testing.T) {
	for _, n := range []int{2, 3, 10} {
		m := NewMADE(n, 17, rng.New(uint64(n)))
		for _, d := range m.deg {
			if d < 1 || d > n-1 {
				t.Fatalf("n=%d degree %d out of range [1,%d]", n, d, n-1)
			}
		}
	}
}

func TestMADEFirstOutputIsConstant(t *testing.T) {
	// p_0 has degree 1 and must not depend on any input.
	r := rng.New(9)
	m := NewMADE(6, 8, r)
	s := m.newScratch()
	x := make([]int, 6)
	m.forward(x, s)
	z0 := s.Z2[0]
	for trial := 0; trial < 20; trial++ {
		r.FillBits(x)
		m.forward(x, s)
		if s.Z2[0] != z0 {
			t.Fatal("output 0 depends on inputs")
		}
	}
}

func TestMADESingleSite(t *testing.T) {
	// n = 1: the model is a single Bernoulli with p = sigma(b2).
	m := NewMADE(1, 4, rng.New(10))
	p := 1 / (1 + math.Exp(-m.B2[0]))
	if got := math.Exp(m.LogProb([]int{1})); math.Abs(got-p) > 1e-12 {
		t.Fatalf("pi(1) = %v, want %v", got, p)
	}
	if got := math.Exp(m.LogProb([]int{0})); math.Abs(got-(1-p)) > 1e-12 {
		t.Fatalf("pi(0) = %v, want %v", got, 1-p)
	}
}

func BenchmarkMADEForward(b *testing.B) {
	m := NewMADE(100, 107, rng.New(1))
	s := m.newScratch()
	x := make([]int, 100)
	rng.New(2).FillBits(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forward(x, s)
	}
}

func BenchmarkMADEGrad(b *testing.B) {
	m := NewMADE(100, 107, rng.New(1))
	s := m.newScratch()
	x := make([]int, 100)
	rng.New(2).FillBits(x)
	g := tensor.NewVector(m.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.gradLogPsiScratch(x, g, s)
	}
}
