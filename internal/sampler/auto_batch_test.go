package sampler

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// referenceSample is sample-at-a-time ancestral sampling, the definition
// Auto is held to: one uniform drawn per site as the site is reached, from
// the sampler's one stream.
func referenceSample(ev nn.ConditionalEvaluator, rnd *rng.Rand, b *Batch) {
	for s := 0; s < b.N; s++ {
		row := b.Row(s)
		ev.Reset()
		for i := range row {
			p := ev.Prob(i)
			bit := 0
			if rnd.Float64() < p {
				bit = 1
			}
			row[i] = bit
			ev.Fix(i, bit)
		}
	}
}

// TestAutoBatchedBitIdentical: for every family, Auto must fill batches
// with exactly the bits — and charge exactly the forward passes — of the
// sample-at-a-time reference loop drawing from r.SplitN(1)[0], at every
// worker count, across batch sizes, site counts and consecutive Sample calls
// (stream continuity). MADE's naive evaluator is held to the paper's
// Algorithm 1 by package nn's test of the same name.
func TestAutoBatchedBitIdentical(t *testing.T) {
	type family struct {
		name    string
		builder nn.BatchAncestralBuilder
		newEval func() nn.ConditionalEvaluator
	}
	for _, n := range []int{1, 2, 7, 19} {
		made := nn.NewMADE(n, 6+n, rng.New(uint64(500+n)))
		nade := nn.NewNADE(n, 5+n, rng.New(uint64(600+n)))
		rnn := nn.NewRNN(n, 4+n, rng.New(uint64(700+n)))
		for _, c := range []family{
			{"made", made, made.NewIncrementalEvaluator},
			{"nade", nade, nade.NewIncrementalEvaluator},
			{"rnn", rnn, rnn.NewIncrementalEvaluator},
		} {
			for _, workers := range []int{1, 2, 3, 8} {
				for _, bs := range []int{1, 3, 64} {
					seed := uint64(1000*n + 10*workers + bs)
					ev, stream := c.newEval(), rng.New(seed).SplitN(1)[0]
					auto := NewAutoBatched(n, c.builder, workers, rng.New(seed))
					for call := 0; call < 3; call++ {
						want, got := NewBatch(bs, n), NewBatch(bs, n)
						referenceSample(ev, stream, want)
						auto.Sample(got)
						for i := range want.Bits {
							if want.Bits[i] != got.Bits[i] {
								t.Fatalf("%s n=%d w=%d B=%d call %d: bit %d reference %d auto %d",
									c.name, n, workers, bs, call, i, want.Bits[i], got.Bits[i])
							}
						}
					}
					if want, got := ev.ForwardPasses(), auto.Cost().ForwardPasses; want != got {
						t.Fatalf("%s n=%d w=%d B=%d: pass accounting reference %d auto %d",
							c.name, n, workers, bs, want, got)
					}
				}
			}
		}
	}
}

// BenchmarkAutoSampleBatched times Auto (uniforms pre-drawn, then MADE's row
// adaptor over the incremental evaluator) at the paper-scale working point
// (n=32, h=64, B=1024).
func BenchmarkAutoSampleBatched(b *testing.B) {
	const n, h, bs = 32, 64, 1024
	m := nn.NewMADE(n, h, rng.New(1))
	smp := NewAutoBatched(n, m, 0, rng.New(2))
	batch := NewBatch(bs, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Sample(batch)
	}
}
