package nn

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// algorithm1 is the paper's Algorithm 1 written against MADE's forward
// pass: every conditional reruns the whole network.
type algorithm1 struct {
	m      *MADE
	s      *madeScratch
	x      []int
	passes int64
}

func (e *algorithm1) Reset() { clear(e.x) }

func (e *algorithm1) Prob(i int) float64 {
	e.m.forward(e.x, e.s)
	e.passes++
	return 1 / (1 + math.Exp(-e.s.Z2[i]))
}

func (e *algorithm1) Fix(i, bit int)       { e.x[i] = bit }
func (e *algorithm1) ForwardPasses() int64 { return e.passes }

// TestAutoBatchedBitIdentical holds the batched sampler behind
// MADE.NaiveAncestral — the "auto-naive" sampler — to algorithm1: fed the
// same uniforms, it must fill batches with exactly the bits, and charge
// exactly the forward passes, of algorithm1 walked sample-major, at every
// worker count, across batch sizes, site counts and consecutive calls.
func TestAutoBatchedBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 19} {
		m := NewMADE(n, 6+n, rng.New(uint64(500+n)))
		for _, workers := range []int{1, 2, 3, 8} {
			for _, bs := range []int{1, 3, 64} {
				ref := &algorithm1{m: m, s: m.newScratch(), x: make([]int, n)}
				naive := m.NaiveAncestral().NewBatchAncestralSampler()
				stream := rng.New(uint64(1000*n + 10*workers + bs))
				for call := 0; call < 3; call++ {
					u := make([]float64, bs*n)
					stream.FillUniform(u, 0, 1)
					want := make([]int, bs*n)
					for k := 0; k < bs; k++ {
						ref.Reset()
						for i := 0; i < n; i++ {
							bit := 0
							if u[k*n+i] < ref.Prob(i) {
								bit = 1
							}
							want[k*n+i] = bit
							ref.Fix(i, bit)
						}
					}
					got := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
					naive.Sample(got, u, workers)
					for i := range want {
						if want[i] != got.Bits[i] {
							t.Fatalf("n=%d w=%d B=%d call %d: bit %d algorithm1 %d naive %d",
								n, workers, bs, call, i, want[i], got.Bits[i])
						}
					}
				}
				if want, got := ref.ForwardPasses(), naive.ForwardPasses(); want != got {
					t.Fatalf("n=%d w=%d B=%d: pass accounting algorithm1 %d naive %d",
						n, workers, bs, want, got)
				}
			}
		}
	}
}
