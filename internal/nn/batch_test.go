package nn

import (
	"fmt"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// batchCases are the (B, workers, n) grids the batched-vs-scalar
// bit-identity properties run over (the ISSUE's acceptance matrix).
var (
	batchSizes   = []int{1, 3, 64}
	workerCounts = []int{1, 2, 5}
	siteCounts   = []int{1, 2, 7, 19}
)

func randomConfigs(bs, n int, r *rng.Rand) ConfigBatch {
	b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
	r.FillBits(b.Bits)
	return b
}

// TestLogPsiBatchBitIdentical: LogPsiBatch must equal per-row LogPsi with
// exact ==, for every batch size, worker count and site count.
func TestLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 6+n, rng.New(uint64(100+n)))
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(7*bs+n)))
				out := make([]float64, bs)
				e.LogPsiBatch(b, out)
				s := m.newScratch()
				for k := 0; k < bs; k++ {
					want := m.logPsiScratch(b.Row(k), s)
					if out[k] != want {
						t.Fatalf("n=%d w=%d B=%d row %d: batched %v != scalar %v",
							n, workers, bs, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestGradLogPsiBatchBitIdentical: every ows row must equal the scalar
// GradLogPsi of that configuration with exact ==.
func TestGradLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 5+n/2, rng.New(uint64(200+n)))
		d := m.NumParams()
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(13*bs+n)))
				ows := tensor.NewBatch(bs, d)
				e.GradLogPsiBatch(b, ows)
				s := m.newScratch()
				want := tensor.NewVector(d)
				for k := 0; k < bs; k++ {
					m.gradLogPsiScratch(b.Row(k), want, s)
					row := ows.Sample(k)
					for i := range want {
						if row[i] != want[i] {
							t.Fatalf("n=%d w=%d B=%d row %d param %d: batched %v != scalar %v",
								n, workers, bs, k, i, row[i], want[i])
						}
					}
				}
			}
		}
	}
}

// allFlips lists every single-bit flip of n sites, the TIM local-energy
// pattern.
func allFlips(n int) []int {
	flips := make([]int, n)
	for i := range flips {
		flips[i] = i
	}
	return flips
}

// checkFlipBatch runs e.FlipLogPsiBatch over every single-bit flip of b's
// rows and holds each base to m's flip cache's LogPsi, and each delta to
// its Delta, with ==. It returns the base and delta values.
func checkFlipBatch(t *testing.T, what string, m CacheBuilder, e BatchEvaluator, b ConfigBatch) (base, delta []float64) {
	t.Helper()
	n, flips := b.Sites, allFlips(b.Sites)
	base, delta = make([]float64, b.N), make([]float64, b.N*n)
	e.FlipLogPsiBatch(b, flips, base, delta)
	cache := m.NewFlipCache(b.Row(0))
	for k := 0; k < b.N; k++ {
		if k > 0 {
			cache.Reset(b.Row(k))
		}
		if base[k] != cache.LogPsi() {
			t.Fatalf("%s row %d: batched base %v != cache %v", what, k, base[k], cache.LogPsi())
		}
		for f, bit := range flips {
			if want := cache.Delta(bit); delta[k*n+f] != want {
				t.Fatalf("%s row %d flip %d: batched delta %v != cache %v", what, k, bit, delta[k*n+f], want)
			}
		}
	}
	return base, delta
}

// TestFlipLogPsiBatchBitIdentical: base values must match the flip cache's
// base LogPsi (and, under the fresh-forward convention, a fresh LogPsi) and
// delta values must match FlipCache.Delta, exactly — the property
// core.LocalEnergies' batched dispatch relies on.
func TestFlipLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 4+n, rng.New(uint64(300+n)))
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(17*bs+n)))
				what := fmt.Sprintf("n=%d w=%d B=%d", n, workers, bs)
				base, _ := checkFlipBatch(t, what, m, e, b)
				s := m.newScratch()
				for k := 0; k < bs; k++ {
					if want := m.logPsiScratch(b.Row(k), s); base[k] != want {
						t.Fatalf("%s row %d: batched base %v != fresh LogPsi %v", what, k, base[k], want)
					}
				}
			}
		}
	}
}

// TestFlipLogPsiBatchMatchesFullRecompute: the tail-only super-batch and
// the full-recompute reference evaluator must agree byte for byte on every
// base and delta — the differential proof that skipping output sites j < b
// is invisible in the values.
func TestFlipLogPsiBatchMatchesFullRecompute(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 4+n, rng.New(uint64(350+n)))
		flips := allFlips(n)
		tail := m.NewBatchEvaluator(2)
		full := m.NewFullFlipBatchEvaluator(3)
		for _, bs := range batchSizes {
			b := randomConfigs(bs, n, rng.New(uint64(23*bs+n)))
			baseT := make([]float64, bs)
			baseF := make([]float64, bs)
			deltaT := make([]float64, bs*n)
			deltaF := make([]float64, bs*n)
			tail.FlipLogPsiBatch(b, flips, baseT, deltaT)
			full.FlipLogPsiBatch(b, flips, baseF, deltaF)
			for k := range baseT {
				if baseT[k] != baseF[k] {
					t.Fatalf("n=%d B=%d row %d: tail base %v != full base %v", n, bs, k, baseT[k], baseF[k])
				}
			}
			for i := range deltaT {
				if deltaT[i] != deltaF[i] {
					t.Fatalf("n=%d B=%d delta %d: tail %v != full %v", n, bs, i, deltaT[i], deltaF[i])
				}
			}
		}
	}
}

// TestFlipLogPsiBatchRandomSites pins the tail-only flip path against
// fresh LogPsi for RANDOM flip-site subsets (not just the all-bits TIM
// pattern) across the full B x n acceptance grid: for every row and flip,
// base + delta must reproduce exactly the values the scalar tail-only
// cache derives from a fresh forward of the flipped configuration.
func TestFlipLogPsiBatchRandomSites(t *testing.T) {
	r := rng.New(41)
	for _, n := range siteCounts {
		m := NewMADE(n, 6+n, r.Split())
		e := m.NewBatchEvaluator(3)
		s := m.newScratch()
		y := make([]int, n)
		for _, bs := range batchSizes {
			nf := 1 + r.Intn(n)
			flips := make([]int, nf)
			for f := range flips {
				flips[f] = r.Intn(n)
			}
			b := randomConfigs(bs, n, r.Split())
			base := make([]float64, bs)
			delta := make([]float64, bs*nf)
			e.FlipLogPsiBatch(b, flips, base, delta)
			for k := 0; k < bs; k++ {
				baseWant := m.logPsiScratch(b.Row(k), s)
				if base[k] != baseWant {
					t.Fatalf("n=%d B=%d row %d: base %v != fresh %v", n, bs, k, base[k], baseWant)
				}
				for f, bit := range flips {
					copy(y, b.Row(k))
					y[bit] = 1 - y[bit]
					want := m.logPsiScratch(y, s) - baseWant
					if delta[k*nf+f] != want {
						t.Fatalf("n=%d B=%d row %d flip site %d: delta %v != fresh %v",
							n, bs, k, bit, delta[k*nf+f], want)
					}
				}
			}
		}
	}
}

// TestBatchAncestralBitIdentical: fed the same uniforms, the batched
// sampler (the row adaptor, at every worker count) must produce exactly the
// bits of the scalar incremental evaluator walked sample-major.
func TestBatchAncestralBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 6+n, rng.New(uint64(400+n)))
		bsmp := m.NewBatchAncestralSampler()
		for _, bs := range batchSizes {
			u := make([]float64, bs*n)
			rng.New(uint64(19*bs+n)).FillUniform(u, 0, 1)
			// Scalar reference: incremental evaluator, one sample at a time.
			want := make([]int, bs*n)
			ev := m.NewIncrementalEvaluator()
			for k := 0; k < bs; k++ {
				ev.Reset()
				for i := 0; i < n; i++ {
					bit := 0
					if u[k*n+i] < ev.Prob(i) {
						bit = 1
					}
					want[k*n+i] = bit
					ev.Fix(i, bit)
				}
			}
			for _, workers := range workerCounts {
				b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
				bsmp.Sample(b, u, workers)
				for i := range want {
					if b.Bits[i] != want[i] {
						t.Fatalf("n=%d B=%d w=%d: bit %d = %d, scalar %d",
							n, bs, workers, i, b.Bits[i], want[i])
					}
				}
			}
		}
	}
}

// TestMaskedWeightCacheInvalidation: the W.M cache must be rebuilt after
// InvalidateParams and must poison results if it is NOT invalidated — the
// teeth that prove the version counter is load-bearing.
func TestMaskedWeightCacheInvalidation(t *testing.T) {
	n := 6
	m := NewMADE(n, 8, rng.New(5))
	e := m.NewBatchEvaluator(2)
	b := randomConfigs(4, n, rng.New(6))
	out := make([]float64, 4)
	e.LogPsiBatch(b, out) // builds the cache

	// Mutate a weight that is inside the mask support and invalidate: the
	// batched value must track the scalar one.
	m.Params()[0] += 0.125
	InvalidateParams(m)
	e.LogPsiBatch(b, out)
	for k := 0; k < 4; k++ {
		if want := m.LogPsi(b.Row(k)); out[k] != want {
			t.Fatalf("after invalidation row %d: batched %v != scalar %v", k, out[k], want)
		}
	}

	// Teeth: mutate again WITHOUT invalidating; the stale cache must now
	// disagree with the scalar path (if it silently agreed, the cache
	// would not actually be caching anything).
	m.Params()[0] += 0.125
	e.LogPsiBatch(b, out)
	stale := false
	for k := 0; k < 4; k++ {
		if out[k] != m.LogPsi(b.Row(k)) {
			stale = true
		}
	}
	if !stale {
		t.Fatal("stale masked-weight cache still matched fresh weights; cache is not engaged")
	}
	InvalidateParams(m)
}

// TestTailFlipCacheExactRegression pins the tail-only flip cache against
// fresh LogPsi calls with exact ==: after arbitrary interleavings of Flip,
// Delta and Reset the cached base log psi, the absolute flipped log psi
// (FlipLogPsi) and every delta must agree bitwise with a full
// recomputation — the tentpole invariant that evaluating only output sites
// j >= b changes nothing but the work done.
func TestTailFlipCacheExactRegression(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{1, 2, 7, 19} {
		m := NewMADE(n, 5+n, r.Split())
		x := make([]int, n)
		r.FillBits(x)
		c := m.NewFlipCache(x).(tailFlipCache)
		y := make([]int, n)
		for trial := 0; trial < 200; trial++ {
			if c.LogPsi() != m.LogPsi(c.State()) {
				t.Fatalf("n=%d trial %d: cache logPsi %v != fresh %v",
					n, trial, c.LogPsi(), m.LogPsi(c.State()))
			}
			bit := r.Intn(n)
			copy(y, c.State())
			y[bit] = 1 - y[bit]
			if got, want := c.FlipLogPsi(bit), m.LogPsi(y); got != want {
				t.Fatalf("n=%d trial %d: FlipLogPsi(%d) = %v != fresh %v", n, trial, bit, got, want)
			}
			if got, want := c.Delta(bit), m.LogPsi(y)-c.LogPsi(); got != want {
				t.Fatalf("n=%d trial %d: Delta(%d) = %v != fresh difference %v", n, trial, bit, got, want)
			}
			switch trial % 3 {
			case 0:
				c.Flip(bit)
			case 1:
				r.FillBits(y)
				c.Reset(y)
			}
		}
	}
}
