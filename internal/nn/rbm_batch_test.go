package nn

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// The RBM batched evaluation suite mirrors batch_test.go: every method of
// the RBM's BatchEvaluator must reproduce the scalar path with exact ==
// across the acceptance grid of batch sizes, worker counts and site counts.

// TestRBMLogPsiBatchBitIdentical: LogPsiBatch must equal per-row
// logPsiScratch with exact ==.
func TestRBMLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewRBM(n, 6+n, rng.New(uint64(500+n)))
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(29*bs+n)))
				out := make([]float64, bs)
				e.LogPsiBatch(b, out)
				s := m.newScratch()
				for k := 0; k < bs; k++ {
					if want := m.logPsiScratch(b.Row(k), s); out[k] != want {
						t.Fatalf("n=%d w=%d B=%d row %d: batched %v != scalar %v",
							n, workers, bs, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestRBMGradLogPsiBatchBitIdentical: every ows row must equal the scalar
// gradLogPsiScratch of that configuration with exact ==.
func TestRBMGradLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewRBM(n, 5+n/2, rng.New(uint64(600+n)))
		d := m.NumParams()
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(31*bs+n)))
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

// TestRBMFlipLogPsiBatchBitIdentical: base values must match the RBM flip
// cache's base LogPsi and deltas must match the O(h) incremental
// FlipCache.Delta, with exact == — the property that keeps the batched
// MCMC-pipeline local energies interchangeable with the scalar loop.
func TestRBMFlipLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewRBM(n, 4+n, rng.New(uint64(700+n)))
		flips := make([]int, n)
		for i := range flips {
			flips[i] = i
		}
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(37*bs+n)))
				base := make([]float64, bs)
				delta := make([]float64, bs*n)
				e.FlipLogPsiBatch(b, flips, base, delta)
				cache := m.NewFlipCache(b.Row(0))
				for k := 0; k < bs; k++ {
					if k > 0 {
						cache.Reset(b.Row(k))
					}
					if base[k] != cache.LogPsi() {
						t.Fatalf("n=%d w=%d B=%d row %d: batched base %v != cache %v",
							n, workers, bs, k, base[k], cache.LogPsi())
					}
					for f, bit := range flips {
						if want := cache.Delta(bit); delta[k*n+f] != want {
							t.Fatalf("n=%d w=%d B=%d row %d flip %d: batched delta %v != cache %v",
								n, workers, bs, k, bit, delta[k*n+f], want)
						}
					}
				}
			}
		}
	}
}

// TestRBMWeightCacheInvalidation: the W^T cache must be rebuilt after
// InvalidateParams and must poison results when it is NOT invalidated —
// the teeth proving the version counter is load-bearing for the RBM too.
func TestRBMWeightCacheInvalidation(t *testing.T) {
	n := 6
	m := NewRBM(n, 8, rng.New(51))
	e := m.NewBatchEvaluator(2)
	b := randomConfigs(4, n, rng.New(52))
	out := make([]float64, 4)
	e.LogPsiBatch(b, out) // builds the cache

	m.Params()[0] += 0.125
	InvalidateParams(m)
	e.LogPsiBatch(b, out)
	for k := 0; k < 4; k++ {
		if want := m.LogPsi(b.Row(k)); out[k] != want {
			t.Fatalf("after invalidation row %d: batched %v != scalar %v", k, out[k], want)
		}
	}

	m.Params()[0] += 0.125
	e.LogPsiBatch(b, out)
	stale := false
	for k := 0; k < 4; k++ {
		if out[k] != m.LogPsi(b.Row(k)) {
			stale = true
		}
	}
	if !stale {
		t.Fatal("stale transposed-weight cache still matched fresh weights; cache is not engaged")
	}
	InvalidateParams(m)
}
