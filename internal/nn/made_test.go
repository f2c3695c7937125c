package nn

import (
	"math"
	"runtime"
	"testing"

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
		perturb(m, rng.New(77), 1) // a non-trivial point
		if total := probSum(m); math.Abs(total-1) > 1e-10 {
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
	wm1t, _ := m.maskedWeights()
	for i := 0; i < n; i++ {
		fast := m.conditionalRow(z1, i)
		slow := m.conditional(x, i, s)
		if math.Abs(fast-slow) > 1e-12 {
			t.Fatalf("bit %d: incremental %v vs forward %v", i, fast, slow)
		}
		m.accumulateInput(z1, wm1t, i, x[i])
	}
}

// refProb and refFix are the incremental sampler's kernels written as dense
// loops over every hidden unit with the masks as degree predicates: output
// i sees unit k iff 1 <= deg(k) <= i, and unit k sees input i iff
// deg(k) > i. They add the same terms in the same order as the run-table
// kernels, so the conditionals must agree with ==.
func refProb(m *MADE, z1 []float64, i int) float64 {
	z := m.B2[i]
	for k := 0; k < m.h; k++ {
		if d := m.deg[k]; d >= 1 && d <= i {
			if a := z1[k]; a > 0 {
				z += float64(m.W2.At(i, k) * a)
			}
		}
	}
	return 1 / (1 + math.Exp(-z))
}

func refFix(m *MADE, z1 []float64, i, bit int) {
	if bit == 0 {
		return
	}
	for k := 0; k < m.h; k++ {
		if m.deg[k] > i {
			z1[k] += m.W1.At(k, i)
		}
	}
}

// TestMADEIncrementalMatchesDegreeReference pins every conditional of
// NewIncrementalEvaluator bit for bit to refProb/refFix over random
// prefixes. The shapes cover h < n-1, h not a multiple of n-1, a single
// site, and n = 2, where the runs are not ascending.
func TestMADEIncrementalMatchesDegreeReference(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {2, 3}, {5, 3}, {17, 9}, {64, 86}} {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(97*n + h))
		m := NewMADE(n, h, r)
		for i := range m.Params() {
			m.Params()[i] += r.Uniform(-1, 1)
		}
		ev := m.NewIncrementalEvaluator()
		x := make([]int, n)
		z1 := make([]float64, h)
		for trial := 0; trial < 40; trial++ {
			r.FillBits(x)
			ev.Reset()
			copy(z1, m.B1)
			for i, bit := range x {
				if got, want := ev.Prob(i), refProb(m, z1, i); got != want {
					t.Fatalf("n=%d h=%d trial %d: Prob(%d) = %v, degree reference %v", n, h, trial, i, got, want)
				}
				ev.Fix(i, bit)
				refFix(m, z1, i, bit)
			}
		}
	}
}

// TestMADEFootprint holds NewMADE to its parameters: at n = 2048 and the
// paper's width the constructor may allocate at most 10 % beyond the 8*d
// bytes of theta (degrees and run tables included, no mask matrices).
func TestMADEFootprint(t *testing.T) {
	n := 2048
	h := HiddenMADE(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMADE(n, h, rng.New(1))
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := 1.1 * 8 * float64(m.NumParams()); float64(got) > limit {
		t.Fatalf("NewMADE(%d, %d) allocated %d bytes, over 1.1 x 8d = %.0f", n, h, got, limit)
	}
}

func TestMADEGradMatchesFiniteDifference(t *testing.T) {
	gradFiniteDiffCheck(t, "MADE", NewMADE(5, 4, rng.New(6)), []int{1, 0, 1, 1, 0}, 1e-5)
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
	checkFlipCache(t, "MADE", NewMADE(7, 6, r), r, 30)
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
