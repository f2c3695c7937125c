package nn

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
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
