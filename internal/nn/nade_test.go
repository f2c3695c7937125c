package nn

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// conditional is NADE's reference P(x_i = 1 | x_<i): the state folded
// afresh over the bits before i.
func (m *NADE) conditional(x []int, i int, s *seqScratch) float64 {
	m.initState(s.S)
	for j := 0; j < i; j++ {
		m.consume(s.S, j, x[j])
	}
	return 1 / (1 + math.Exp(-m.siteZ(s.S, i)))
}

func perturb(m Wavefunction, r *rng.Rand, scale float64) {
	p := m.Params()
	for i := range p {
		p[i] += r.Uniform(-scale, scale)
	}
}

// probSum is sum_x pi(x) over all 2^n configurations, 1 for any
// parameters of a normalized model.
func probSum(m Normalized) float64 {
	var total float64
	x := make([]int, m.NumSites())
	for ix := 0; ix < 1<<uint(len(x)); ix++ {
		hamiltonian.IndexToBits(ix, x)
		total += math.Exp(m.LogProb(x))
	}
	return total
}

func TestNADENormalization(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		m := NewNADE(n, 6, rng.New(uint64(n)))
		perturb(m, rng.New(99), 0.7)
		if got := probSum(m); math.Abs(got-1) > 1e-9 {
			t.Fatalf("NADE n=%d: sum_x pi(x) = %v, want 1", n, got)
		}
	}
}

// TestNADEChainRuleConsistency holds the product of the conditionals to
// LogProb on 30 random configurations.
func TestNADEChainRuleConsistency(t *testing.T) {
	r := rng.New(3)
	m := NewNADE(6, 7, r)
	x := make([]int, m.NumSites())
	for trial := 0; trial < 30; trial++ {
		r.FillBits(x)
		var lp float64
		for i := range x {
			p := m.conditional(x, i, m.newScratch())
			if x[i] == 1 {
				lp += math.Log(p)
			} else {
				lp += math.Log(1 - p)
			}
		}
		if math.Abs(lp-m.LogProb(x)) > 1e-10 {
			t.Fatalf("chain rule product %v != LogProb %v", lp, m.LogProb(x))
		}
	}
}

// TestNADEConditionalIgnoresFutureBits: on 50 random prefixes, the
// conditional at site i is the same whatever bits follow it.
func TestNADEConditionalIgnoresFutureBits(t *testing.T) {
	r := rng.New(5)
	m := NewNADE(7, 6, r)
	n := m.NumSites()
	x, y := make([]int, n), make([]int, n)
	for trial := 0; trial < 50; trial++ {
		r.FillBits(x)
		copy(y, x)
		i := r.Intn(n)
		for j := i; j < n; j++ {
			y[j] = r.Bit()
		}
		if m.conditional(x, i, m.newScratch()) != m.conditional(y, i, m.newScratch()) {
			t.Fatal("conditional depends on future bits")
		}
	}
}

// checkFlipCache walks a flip cache of m from random bits through trials
// random flips drawn from r: every Delta equals the recomputed log-psi
// difference, neither Delta nor Flip lets the cache's LogPsi drift from a
// fresh one, and Reset returns it to the start.
func checkFlipCache(t *testing.T, name string, m interface {
	Wavefunction
	CacheBuilder
}, r *rng.Rand, trials int) {
	t.Helper()
	x := make([]int, m.NumSites())
	r.FillBits(x)
	c := m.NewFlipCache(x)
	if math.Abs(c.LogPsi()-m.LogPsi(x)) > 1e-12 {
		t.Fatalf("%s: cache LogPsi mismatch at init", name)
	}
	for trial := 0; trial < trials; trial++ {
		b := r.Intn(len(x))
		y := append([]int(nil), c.State()...)
		y[b] = 1 - y[b]
		want := m.LogPsi(y) - m.LogPsi(c.State())
		if got := c.Delta(b); math.Abs(got-want) > 1e-10 {
			t.Fatalf("%s: Delta(%d) = %v, want %v", name, b, got, want)
		}
		if math.Abs(c.LogPsi()-m.LogPsi(c.State())) > 1e-12 {
			t.Fatalf("%s: Delta mutated cache state", name)
		}
		c.Flip(b)
		if math.Abs(c.LogPsi()-m.LogPsi(c.State())) > 1e-10 {
			t.Fatalf("%s: Flip left cache inconsistent", name)
		}
	}
	c.Reset(x)
	if math.Abs(c.LogPsi()-m.LogPsi(x)) > 1e-12 {
		t.Fatalf("%s: Reset broken", name)
	}
}

// gradFiniteDiffCheck holds m's analytic GradLogPsi at x to central
// differences of LogPsi, element by element, within tol.
func gradFiniteDiffCheck(t *testing.T, name string, m Wavefunction, x []int, tol float64) {
	t.Helper()
	grad := tensor.NewVector(m.NumParams())
	m.GradLogPsi(x, grad)
	const eps = 1e-6
	p := m.Params()
	for i := 0; i < m.NumParams(); i++ {
		orig := p[i]
		p[i] = orig + eps
		fp := m.LogPsi(x)
		p[i] = orig - eps
		fm := m.LogPsi(x)
		p[i] = orig
		fd := (fp - fm) / (2 * eps)
		if math.Abs(fd-grad[i]) > tol {
			t.Fatalf("%s param %d: analytic %v vs finite-diff %v", name, i, grad[i], fd)
		}
	}
}

func TestNADEGradMatchesFiniteDifference(t *testing.T) {
	m := NewNADE(5, 4, rng.New(7))
	gradFiniteDiffCheck(t, "NADE", m, []int{1, 0, 1, 1, 0}, 2e-5)
	gradFiniteDiffCheck(t, "NADE", m, []int{0, 0, 0, 0, 0}, 2e-5)
	gradFiniteDiffCheck(t, "NADE", m, []int{1, 1, 1, 1, 1}, 2e-5)
}

// TestNADEIncrementalEvaluatorMatchesConditional walks the incremental
// evaluator over random bits, holding every Prob to the reference
// conditional, and counts one forward pass for the completed sample.
func TestNADEIncrementalEvaluatorMatchesConditional(t *testing.T) {
	r := rng.New(9)
	m := NewNADE(8, 6, r)
	e := m.NewIncrementalEvaluator()
	x := make([]int, m.NumSites())
	r.FillBits(x)
	e.Reset()
	for i := range x {
		if math.Abs(e.Prob(i)-m.conditional(x, i, m.newScratch())) > 1e-12 {
			t.Fatalf("evaluator diverges at bit %d", i)
		}
		e.Fix(i, x[i])
	}
	if e.ForwardPasses() != 1 {
		t.Fatalf("passes = %d, want 1 per completed sample", e.ForwardPasses())
	}
}

func TestNADEFlipCacheConsistent(t *testing.T) {
	r := rng.New(11)
	checkFlipCache(t, "NADE", NewNADE(7, 5, r), r, 20)
}

// TestNADEConditionalZMatchesMaterializedReLU pins the skip-on-nonpositive
// conditional against the formula it replaced — copy the accumulator, apply
// ReLU, take the ascending dot with V_i, add the bias — with exact ==, on
// accumulators with negative, zero, negative-zero and positive entries, and
// the backward against the same formula spelled out, so the committed
// trajectories (bench core.curve_hash) cannot move.
func TestNADEConditionalZMatchesMaterializedReLU(t *testing.T) {
	const n, h = 7, 12
	m := NewNADE(n, h, rng.New(61))
	r := rng.New(62)
	a, relu := tensor.NewVector(h), tensor.NewVector(h)
	for trial := 0; trial < 200; trial++ {
		r.FillNorm(a, 1)
		a[trial%h] = 0
		a[(trial+3)%h] = math.Copysign(0, -1)
		if trial%7 == 0 {
			for k := range a {
				a[k] = -math.Abs(a[k]) // every unit inactive
			}
		}
		copy(relu, a)
		tensor.ReLU(relu)
		for i := 0; i < n; i++ {
			want := m.V.Row(i).Dot(relu) + m.B[i]
			if got := m.siteZ(a, i); got != want || math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("trial %d site %d: siteZ %v != materialized %v", trial, i, got, want)
			}
		}
	}
	// Backward: the V block of the gradient is 0.5 * dz_i * relu(a_i), the
	// inactive entries exactly +0.
	x := make([]int, n)
	grad := tensor.NewVector(m.NumParams())
	for trial := 0; trial < 20; trial++ {
		r.FillBits(x)
		m.GradLogPsi(x, grad)
		copy(a, m.C)
		for i, bit := range x {
			copy(relu, a)
			tensor.ReLU(relu)
			dz := float64(bit) - 1/(1+math.Exp(-(m.V.Row(i).Dot(relu)+m.B[i])))
			for k := 0; k < h; k++ {
				want := 0.5 * (0 + dz*relu[k])
				got := grad[h*n+h+i*h+k]
				if got != want || math.Signbit(got) != math.Signbit(want) {
					t.Fatalf("trial %d site %d unit %d: dV %v != materialized %v", trial, i, k, got, want)
				}
			}
			m.consume(a, i, bit)
		}
	}
}

func TestNADEParamCountMatchesMADE(t *testing.T) {
	// Same width, same budget: d = 2hn + h + n for both.
	nade := NewNADE(10, 8, rng.New(13))
	made := NewMADE(10, 8, rng.New(13))
	if nade.NumParams() != made.NumParams() {
		t.Fatalf("NADE d=%d, MADE d=%d", nade.NumParams(), made.NumParams())
	}
}

func BenchmarkNADELogProb(b *testing.B) {
	m := NewNADE(100, 107, rng.New(1))
	s := m.newScratch()
	x := make([]int, 100)
	rng.New(2).FillBits(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.logProbScratch(x, s)
	}
}
