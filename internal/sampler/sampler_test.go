package sampler

import (
	"hash/fnv"
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestBatchRow(t *testing.T) {
	b := NewBatch(3, 4)
	b.Row(1)[2] = 1
	if b.Bits[1*4+2] != 1 {
		t.Fatal("Row does not alias storage")
	}
	if len(b.Row(0)) != 4 {
		t.Fatal("Row length wrong")
	}
}

// exactDist enumerates pi(x) for a normalized model.
func exactDist(m nn.Normalized) []float64 {
	n := m.NumSites()
	dim := 1 << uint(n)
	pi := make([]float64, dim)
	x := make([]int, n)
	for ix := 0; ix < dim; ix++ {
		hamiltonian.IndexToBits(ix, x)
		pi[ix] = math.Exp(m.LogProb(x))
	}
	return pi
}

// chiSquare compares empirical counts to expected probabilities; returns the
// statistic (df = len(pi)-1).
func chiSquare(counts []int, pi []float64, total int) float64 {
	var chi float64
	for i, c := range counts {
		want := pi[i] * float64(total)
		if want < 1e-12 {
			continue
		}
		d := float64(c) - want
		chi += d * d / want
	}
	return chi
}

func sampleCounts(s Sampler, n, batches, bs int) []int {
	counts := make([]int, 1<<uint(n))
	b := NewBatch(bs, n)
	for it := 0; it < batches; it++ {
		s.Sample(b)
		for i := 0; i < b.N; i++ {
			counts[hamiltonian.BitsToIndex(b.Row(i))]++
		}
	}
	return counts
}

func TestAutoNaiveSamplesExactDistribution(t *testing.T) {
	r := rng.New(1)
	n := 4
	m := nn.NewMADE(n, 6, r)
	// Perturb to a non-uniform distribution.
	for i := range m.Params() {
		m.Params()[i] += r.Uniform(-0.8, 0.8)
	}
	pi := exactDist(m)
	a := NewAutoBatched(n, m.NaiveAncestral(), 2, rng.New(2))
	const total = 40000
	counts := sampleCounts(a, n, 40, total/40)
	chi := chiSquare(counts, pi, total)
	// df = 15; the 99.9% quantile is ~37.7. Allow margin.
	if chi > 45 {
		t.Fatalf("AUTO naive chi^2 = %v too large (df=15)", chi)
	}
}

func TestAutoIncrementalSamplesExactDistribution(t *testing.T) {
	r := rng.New(3)
	n := 4
	m := nn.NewMADE(n, 6, r)
	for i := range m.Params() {
		m.Params()[i] += r.Uniform(-0.8, 0.8)
	}
	pi := exactDist(m)
	a := NewAutoBatched(n, m, 2, rng.New(4))
	const total = 40000
	counts := sampleCounts(a, n, 40, total/40)
	chi := chiSquare(counts, pi, total)
	if chi > 45 {
		t.Fatalf("AUTO incremental chi^2 = %v too large (df=15)", chi)
	}
}

func TestAutoNaiveAndIncrementalIdenticalStreams(t *testing.T) {
	// With the same RNG seed both evaluators must produce bit-identical
	// samples, whatever their worker counts: they compute the same
	// conditionals from the same stream.
	r := rng.New(5)
	n := 9
	m := nn.NewMADE(n, 12, r)
	a1 := NewAutoBatched(n, m.NaiveAncestral(), 3, rng.New(6))
	a2 := NewAutoBatched(n, m, 2, rng.New(6))
	b1 := NewBatch(64, n)
	b2 := NewBatch(64, n)
	a1.Sample(b1)
	a2.Sample(b2)
	for i := range b1.Bits {
		if b1.Bits[i] != b2.Bits[i] {
			t.Fatalf("sample streams diverge at flat index %d", i)
		}
	}
}

func TestAutoForwardPassAccounting(t *testing.T) {
	// Algorithm 1 costs exactly n forward passes per sample.
	r := rng.New(7)
	n := 6
	m := nn.NewMADE(n, 5, r)
	a := NewAutoBatched(n, m.NaiveAncestral(), 1, rng.New(8))
	b := NewBatch(10, n)
	a.Sample(b)
	if got := a.Cost().ForwardPasses; got != int64(10*n) {
		t.Fatalf("forward passes = %d, want %d", got, 10*n)
	}
	// Incremental charges one pass-equivalent per sample.
	ai := NewAutoBatched(n, m, 1, rng.New(9))
	ai.Sample(b)
	if got := ai.Cost().ForwardPasses; got != 10 {
		t.Fatalf("incremental passes = %d, want 10", got)
	}
}

func TestMCMCConvergesToTargetDistribution(t *testing.T) {
	// Long-run MH empirical distribution must match pi = psi^2/Z for a
	// small RBM.
	r := rng.New(10)
	n := 4
	m := nn.NewRBM(n, 3, r)
	// Sharpen the distribution a little.
	for i := range m.Params() {
		m.Params()[i] += r.Uniform(-0.3, 0.3)
	}
	// Exact pi by enumeration.
	dim := 1 << uint(n)
	pi := make([]float64, dim)
	x := make([]int, n)
	var z float64
	for ix := 0; ix < dim; ix++ {
		hamiltonian.IndexToBits(ix, x)
		pi[ix] = math.Exp(2 * m.LogPsi(x))
		z += pi[ix]
	}
	for i := range pi {
		pi[i] /= z
	}
	mc := NewMCMC(m, MCMCConfig{Chains: 2, BurnIn: 500, Thin: 2}, rng.New(11))
	const total = 30000
	counts := sampleCounts(mc, n, 30, total/30)
	chi := chiSquare(counts, pi, total)
	// Correlated samples inflate chi^2; be generous but still catch a
	// wrong stationary distribution (which gives chi^2 in the thousands).
	if chi > 150 {
		t.Fatalf("MCMC chi^2 = %v too large (df=15)", chi)
	}
}

func TestMCMCDetailedBalance(t *testing.T) {
	// For single-flip MH: pi(x) P(x->y) == pi(y) P(y->x) for neighbours.
	// P(x->y) = (1/n) min(1, pi(y)/pi(x)); verify the identity numerically
	// from the model amplitudes.
	r := rng.New(12)
	n := 5
	m := nn.NewRBM(n, 4, r)
	x := make([]int, n)
	r.FillBits(x)
	logPi := func(c []int) float64 { return 2 * m.LogPsi(c) }
	for bit := 0; bit < n; bit++ {
		y := append([]int(nil), x...)
		y[bit] = 1 - y[bit]
		lx, ly := logPi(x), logPi(y)
		pxy := math.Min(1, math.Exp(ly-lx)) / float64(n)
		pyx := math.Min(1, math.Exp(lx-ly)) / float64(n)
		lhs := math.Exp(lx) * pxy
		rhs := math.Exp(ly) * pyx
		if math.Abs(lhs-rhs) > 1e-12*math.Max(lhs, rhs) {
			t.Fatalf("detailed balance violated at bit %d", bit)
		}
	}
}

func TestMCMCDefaults(t *testing.T) {
	m := nn.NewRBM(50, 10, rng.New(13))
	mc := NewMCMC(m, MCMCConfig{}, rng.New(14))
	cfg := mc.Config()
	if cfg.Chains != 2 {
		t.Errorf("default chains = %d", cfg.Chains)
	}
	if cfg.BurnIn != 3*50+100 {
		t.Errorf("default burn-in = %d, want %d", cfg.BurnIn, 3*50+100)
	}
	if cfg.Thin != 1 {
		t.Errorf("default thin = %d", cfg.Thin)
	}
}

func TestMCMCStepAccounting(t *testing.T) {
	n := 8
	m := nn.NewRBM(n, 4, rng.New(15))
	mc := NewMCMC(m, MCMCConfig{Chains: 2, BurnIn: 100, Thin: 3}, rng.New(16))
	b := NewBatch(20, n)
	mc.Sample(b)
	// Each chain: 100 burn-in + 10*3 thinned = 130 steps; 2 chains = 260.
	if got := mc.Cost().Steps; got != 260 {
		t.Fatalf("steps = %d, want 260", got)
	}
	if rate := mc.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Fatalf("acceptance rate = %v", rate)
	}
}

func TestMCMCPersistentKeepsState(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(17))
	mc := NewMCMC(m, MCMCConfig{Chains: 1, BurnIn: 1, Thin: 1, Persistent: true}, rng.New(18))
	b := NewBatch(4, n)
	mc.Sample(b)
	st := mc.Snapshot().Chains[0]
	// The last recorded sample equals the persistent state.
	for i, v := range b.Row(3) {
		if st[i] != v {
			t.Fatal("persistent state does not match last sample")
		}
	}
}

// TestMarkovStreamsPinned pins the bits the Markov samplers draw — three
// consecutive Sample calls over a fixed RBM and seed, ragged chain slabs,
// burn-in and thinning both on — to constants recorded before MCMC and
// Gibbs were rebuilt over one chain driver: each chain must keep consuming
// its stream in exactly that order.
func TestMarkovStreamsPinned(t *testing.T) {
	const n = 6
	m := nn.NewRBM(n, 4, rng.New(61))
	cfg := MCMCConfig{Chains: 3, BurnIn: 7, Thin: 2}
	persistent := cfg
	persistent.Persistent = true
	for _, tc := range []struct {
		name string
		s    Sampler
		want uint64
	}{
		{"mcmc", NewMCMC(m, cfg, rng.New(62)), 0x90486a9cca0806},
		{"mcmc-persistent", NewMCMC(m, persistent, rng.New(62)), 0xfda3a57639a3146d},
		{"gibbs", NewGibbs(m, cfg, rng.New(62)), 0xc52e68297c3214a3},
		{"gibbs-persistent", NewGibbs(m, persistent, rng.New(62)), 0x7e31ae228c77adc9},
	} {
		h := fnv.New64a()
		b := NewBatch(10, n)
		for call := 0; call < 3; call++ {
			tc.s.Sample(b)
			for _, bit := range b.Bits {
				h.Write([]byte{byte(bit)})
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func TestSampleSitesMismatchPanics(t *testing.T) {
	m := nn.NewMADE(4, 3, rng.New(19))
	a := NewAutoBatched(4, m.NaiveAncestral(), 1, rng.New(20))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on sites mismatch")
		}
	}()
	a.Sample(NewBatch(2, 5))
}

func BenchmarkAutoNaive(b *testing.B) {
	m := nn.NewMADE(100, 107, rng.New(1))
	a := NewAutoBatched(100, m.NaiveAncestral(), 1, rng.New(2))
	batch := NewBatch(32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(batch)
	}
}

func BenchmarkAutoIncremental(b *testing.B) {
	m := nn.NewMADE(100, 107, rng.New(1))
	a := NewAutoBatched(100, m, 1, rng.New(2))
	batch := NewBatch(32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(batch)
	}
}

func BenchmarkMCMCRBM(b *testing.B) {
	m := nn.NewRBM(100, 100, rng.New(1))
	mc := NewMCMC(m, MCMCConfig{}, rng.New(2))
	batch := NewBatch(32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Sample(batch)
	}
}
