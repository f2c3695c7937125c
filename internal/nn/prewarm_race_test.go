package nn

import (
	"sync"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// raceGoroutines is the fan-out width of the first-use race regressions —
// at least 4 per the worker-scaling issue, wider to give the race detector
// more interleavings to bite on.
const raceGoroutines = 8

// lazyCacheModels builds one instance of every model family. MADE and the
// RBM keep lazy parameter-version caches (masked weights, W^T); NADE keeps
// none but rides along to pin that its batched path really has no shared
// mutable state either.
func lazyCacheModels(n, h int) map[string]interface {
	Wavefunction
	BatchEvaluatorBuilder
} {
	return map[string]interface {
		Wavefunction
		BatchEvaluatorBuilder
	}{
		"made": NewMADE(n, h, rng.New(81)),
		"nade": NewNADE(n, h, rng.New(82)),
		"rbm":  NewRBM(n, h, rng.New(83)),
	}
}

// TestLazyCacheConcurrentFirstUse is the -race regression for the lazy
// parameter-version caches: several goroutines, each owning a private
// BatchEvaluator over ONE shared model, evaluate concurrently with no
// coordinator-side pre-warm, so the very first cache build races unless the
// rebuild is serialized. Every goroutine must also read back exactly the
// scalar reference values, pinning that the winning build is the right one.
func TestLazyCacheConcurrentFirstUse(t *testing.T) {
	const n, h, bs = 11, 13, 16
	for name, m := range lazyCacheModels(n, h) {
		t.Run(name, func(t *testing.T) {
			b := randomConfigs(bs, n, rng.New(85))
			want := make([]float64, bs)
			ref := lazyCacheModels(n, h)[name] // same seeds => same params
			for k := 0; k < bs; k++ {
				want[k] = ref.LogPsi(b.Row(k))
			}
			var wg sync.WaitGroup
			errs := make([]string, raceGoroutines)
			for g := 0; g < raceGoroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					e := m.NewBatchEvaluator(2)
					out := make([]float64, bs)
					e.LogPsiBatch(b, out)
					for k := range out {
						if out[k] != want[k] {
							errs[g] = "batched output diverged from scalar reference"
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, e := range errs {
				if e != "" {
					t.Fatalf("goroutine %d: %s", g, e)
				}
			}
		})
	}
}

// TestLazyCacheConcurrentReuseAfterInvalidate covers the second half of the
// cache lifecycle: after a quiescent InvalidateParams (the optimizer-step /
// checkpoint-load path), the next parallel section hits first use of the NEW
// version concurrently. The rebuild must again be race-free and produce the
// scalar reference values for the mutated parameters.
func TestLazyCacheConcurrentReuseAfterInvalidate(t *testing.T) {
	const n, h, bs = 9, 10, 12
	for name, m := range lazyCacheModels(n, h) {
		t.Run(name, func(t *testing.T) {
			b := randomConfigs(bs, n, rng.New(86))
			// Warm the caches at version 1, then mutate params while
			// quiescent.
			Prewarm(m)
			theta := m.Params()
			for i := range theta {
				theta[i] *= 1.0625 // exact scaling, keeps values tame
			}
			InvalidateParams(m)
			want := make([]float64, bs)
			for k := 0; k < bs; k++ {
				want[k] = m.LogPsi(b.Row(k))
			}
			var wg sync.WaitGroup
			errs := make([]string, raceGoroutines)
			for g := 0; g < raceGoroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					e := m.NewBatchEvaluator(2)
					out := make([]float64, bs)
					e.LogPsiBatch(b, out)
					for k := range out {
						if out[k] != want[k] {
							errs[g] = "post-invalidate batched output diverged from scalar reference"
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, e := range errs {
				if e != "" {
					t.Fatalf("goroutine %d: %s", g, e)
				}
			}
		})
	}
}

// TestPrewarmIdempotent pins Prewarm's contract: repeated and concurrent
// calls are safe, and a pre-warmed model evaluates identically to a
// cold one.
func TestPrewarmIdempotent(t *testing.T) {
	const n, h, bs = 7, 8, 6
	for name, m := range lazyCacheModels(n, h) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < raceGoroutines; g++ {
				wg.Add(1)
				go func() { defer wg.Done(); Prewarm(m) }()
			}
			wg.Wait()
			Prewarm(m)
			cold := lazyCacheModels(n, h)[name]
			b := randomConfigs(bs, n, rng.New(87))
			warm := make([]float64, bs)
			ref := make([]float64, bs)
			m.NewBatchEvaluator(1).LogPsiBatch(b, warm)
			cold.NewBatchEvaluator(1).LogPsiBatch(b, ref)
			for k := range warm {
				if warm[k] != ref[k] {
					t.Fatalf("row %d: pre-warmed %v != cold %v", k, warm[k], ref[k])
				}
			}
		})
	}
}
