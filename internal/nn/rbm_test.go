package nn

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// bruteLogPsi evaluates the RBM definition directly.
func bruteLogPsi(m *RBM, x []int) float64 {
	n, h := m.n, m.h
	s := make([]float64, n)
	for i, b := range x {
		s[i] = float64(1 - 2*b)
	}
	lp := m.theta[len(m.theta)-1]
	for k := 0; k < h; k++ {
		var th float64
		for i := 0; i < n; i++ {
			th += m.W.At(k, i) * s[i]
		}
		th += m.C[k]
		lp += math.Log(math.Cosh(th))
	}
	for i := 0; i < n; i++ {
		lp += m.A[i] * s[i]
	}
	return lp
}

func TestRBMParamLayout(t *testing.T) {
	m := NewRBM(5, 7, rng.New(1))
	if m.NumParams() != 7*5+7+5+1 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	p := m.Params()
	p[0] = 3.5
	if m.W.At(0, 0) != 3.5 {
		t.Fatal("W does not alias Params")
	}
}

func TestRBMLogPsiMatchesBrute(t *testing.T) {
	r := rng.New(2)
	m := NewRBM(8, 6, r)
	x := make([]int, 8)
	for trial := 0; trial < 50; trial++ {
		r.FillBits(x)
		got := m.LogPsi(x)
		want := bruteLogPsi(m, x)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("LogPsi = %v, brute = %v", got, want)
		}
	}
}

func TestLnCoshStable(t *testing.T) {
	for _, z := range []float64{0, 0.5, -0.5, 3, -3, 10, -10} {
		if got, want := lnCosh(z), math.Log(math.Cosh(z)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("lnCosh(%v) = %v, want %v", z, got, want)
		}
	}
	// Large arguments where math.Cosh overflows: ln cosh z ~ |z| - ln 2.
	for _, z := range []float64{800, -800} {
		want := math.Abs(z) - math.Ln2
		if got := lnCosh(z); math.Abs(got-want) > 1e-9 {
			t.Fatalf("lnCosh(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestSoftplusAndLogSigmoid(t *testing.T) {
	for _, z := range []float64{-50, -5, 0, 5, 50} {
		wantSP := math.Log(1 + math.Exp(z))
		if z > 30 {
			wantSP = z // avoid overflow in reference
		}
		if got := softplus(z); math.Abs(got-wantSP) > 1e-9 {
			t.Fatalf("softplus(%v) = %v, want %v", z, got, wantSP)
		}
		if got, want := logSigmoid(z), math.Log(1/(1+math.Exp(-z))); z > -30 && math.Abs(got-want) > 1e-9 {
			t.Fatalf("logSigmoid(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestRBMGradMatchesFiniteDifference(t *testing.T) {
	r := rng.New(3)
	m := NewRBM(5, 4, r)
	s := m.newScratch()
	x := []int{1, 0, 0, 1, 1}
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

func TestRBMFlipCacheDeltaExact(t *testing.T) {
	r := rng.New(4)
	n := 9
	m := NewRBM(n, 7, r)
	x := make([]int, n)
	r.FillBits(x)
	c := m.NewFlipCache(x)
	for b := 0; b < n; b++ {
		y := append([]int(nil), x...)
		y[b] = 1 - y[b]
		want := m.LogPsi(y) - m.LogPsi(x)
		if got := c.Delta(b); math.Abs(got-want) > 1e-10 {
			t.Fatalf("Delta(%d) = %v, want %v", b, got, want)
		}
	}
}

func TestRBMFlipCacheLongWalk(t *testing.T) {
	// After many flips the cached log psi and hidden pre-activations must
	// stay consistent with a fresh evaluation (no drift).
	r := rng.New(5)
	n := 12
	m := NewRBM(n, 10, r)
	x := make([]int, n)
	r.FillBits(x)
	c := m.NewFlipCache(x)
	for step := 0; step < 500; step++ {
		c.Flip(r.Intn(n))
	}
	if math.Abs(c.LogPsi()-m.LogPsi(c.State())) > 1e-8 {
		t.Fatalf("cache drifted: %v vs %v", c.LogPsi(), m.LogPsi(c.State()))
	}
}

func TestRBMFlipCacheStateIsolated(t *testing.T) {
	m := NewRBM(4, 3, rng.New(6))
	x := []int{1, 0, 1, 0}
	c := m.NewFlipCache(x)
	c.Flip(0)
	if x[0] != 1 {
		t.Fatal("FlipCache mutated the caller's configuration")
	}
}

func TestRBMDeterministicInit(t *testing.T) {
	a := NewRBM(6, 5, rng.New(7))
	b := NewRBM(6, 5, rng.New(7))
	for i := range a.Params() {
		if a.Params()[i] != b.Params()[i] {
			t.Fatal("same seed gave different parameters")
		}
	}
}

func BenchmarkRBMLogPsi(b *testing.B) {
	m := NewRBM(100, 100, rng.New(1))
	s := m.newScratch()
	x := make([]int, 100)
	rng.New(2).FillBits(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.logPsiScratch(x, s)
	}
}

// BenchmarkRBMRatioCache and BenchmarkRBMRatioRecompute quantify the flip
// ablation: O(h) cached flip ratios vs O(hn) full re-evaluation.
func BenchmarkRBMRatioCache(b *testing.B) {
	m := NewRBM(200, 200, rng.New(1))
	x := make([]int, 200)
	rng.New(2).FillBits(x)
	c := m.NewFlipCache(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Delta(i % 200)
	}
}

func BenchmarkRBMRatioRecompute(b *testing.B) {
	m := NewRBM(200, 200, rng.New(1))
	s := m.newScratch()
	x := make([]int, 200)
	rng.New(2).FillBits(x)
	base := m.logPsiScratch(x, s)
	y := make([]int, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		bit := i % 200
		y[bit] = 1 - y[bit]
		_ = m.logPsiScratch(y, s) - base
	}
}
