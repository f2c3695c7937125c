package sampler

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// TestAutoBatchedBitIdentical: for the same root seed and worker count the
// batched ancestral mode must fill batches with exactly the bits of the
// scalar incremental mode — across batch sizes, worker counts, site counts
// and consecutive Sample calls (stream continuity).
func TestAutoBatchedBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 19} {
		m := nn.NewMADE(n, 6+n, rng.New(uint64(500+n)))
		for _, workers := range []int{1, 2, 5} {
			for _, bs := range []int{1, 3, 64} {
				seed := uint64(1000*n + 10*workers + bs)
				scalar := NewAutoMADE(m, true, workers, rng.New(seed))
				batched := NewAutoBatched(n, m, workers, rng.New(seed))
				for call := 0; call < 3; call++ {
					bs1 := NewBatch(bs, n)
					bs2 := NewBatch(bs, n)
					scalar.Sample(bs1)
					batched.Sample(bs2)
					for i := range bs1.Bits {
						if bs1.Bits[i] != bs2.Bits[i] {
							t.Fatalf("n=%d w=%d B=%d call %d: bit %d scalar %d batched %d",
								n, workers, bs, call, i, bs1.Bits[i], bs2.Bits[i])
						}
					}
				}
				if scalar.Cost().ForwardPasses != batched.Cost().ForwardPasses {
					t.Fatalf("n=%d w=%d B=%d: pass accounting scalar %d batched %d",
						n, workers, bs,
						scalar.Cost().ForwardPasses, batched.Cost().ForwardPasses)
				}
			}
		}
	}
}

func benchAutoSample(b *testing.B, batched bool, workers int) {
	b.Helper()
	const n, h, bs = 32, 64, 1024
	m := nn.NewMADE(n, h, rng.New(1))
	var smp Sampler
	if batched {
		smp = NewAutoBatched(n, m, workers, rng.New(2))
	} else {
		smp = NewAutoMADE(m, true, workers, rng.New(2))
	}
	batch := NewBatch(bs, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Sample(batch)
	}
}

// BenchmarkAutoSampleScalar and BenchmarkAutoSampleBatched compare the
// per-sample incremental ancestral sampler against the batched mode
// (uniforms pre-drawn, then MADE's row adaptor over the same evaluator) at
// the paper-scale working point (n=32, h=64, B=1024).
func BenchmarkAutoSampleScalar(b *testing.B)  { benchAutoSample(b, false, 0) }
func BenchmarkAutoSampleBatched(b *testing.B) { benchAutoSample(b, true, 0) }
