package core

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// dupBatches returns duplicate-heavy batches over n sites in the order one
// reused BatchedEval takes them: all rows distinct (random), a 3-row
// pattern repeated to a ragged B, every row equal, every other row from the
// pattern, then random rows again — so the distinct count falls and rises,
// and stale distinct-pass or workspace state shows as a wrong value.
func dupBatches(n int, r *rng.Rand) []*sampler.Batch {
	fresh := func(bs int) *sampler.Batch {
		b := sampler.NewBatch(bs, n)
		r.FillBits(b.Bits)
		return b
	}
	pattern := fresh(3)
	repeat := func(bs int, src *sampler.Batch) *sampler.Batch {
		b := sampler.NewBatch(bs, n)
		for k := range bs {
			copy(b.Row(k), src.Row(k%src.N))
		}
		return b
	}
	mixed := fresh(50)
	for k := 0; k < mixed.N; k += 2 {
		copy(mixed.Row(k), pattern.Row(k%3))
	}
	return []*sampler.Batch{fresh(64), repeat(67, pattern), repeat(40, fresh(1)), mixed, fresh(70)}
}

// nans returns n NaNs: an output buffer in which an unwritten row cannot
// pass for a value.
func nans(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// TestLocalEnergiesBatchedBitIdentical: the batched flip-super-batch path
// and MADE's full-recompute flip oracle must both reproduce the scalar
// FlipCache path with exact ==, across the acceptance grid of batch sizes,
// worker counts and site counts, and on duplicate-heavy batches through one
// reused evaluator — for TIM and for a diagonal-only Max-Cut Hamiltonian.
func TestLocalEnergiesBatchedBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 19} {
		r := rng.New(uint64(600 + n))
		h := hamiltonian.RandomTIM(n, r)
		m := nn.NewMADE(n, 5+n, r.Split())
		for _, bs := range []int{1, 3, 64} {
			b := sampler.NewBatch(bs, n)
			r.FillBits(b.Bits)
			want := make([]float64, bs)
			LocalEnergies(h, m, b, 1, want)
			for _, workers := range []int{1, 2, 5} {
				// Scalar path must itself be worker-invariant (independent rows).
				got := make([]float64, bs)
				LocalEnergies(h, m, b, workers, got)
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("scalar n=%d B=%d w=%d row %d: %v != %v", n, bs, workers, k, got[k], want[k])
					}
				}
				NewBatchedEval(m, EvalAuto, workers).LocalEnergies(h, b, workers, got)
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("batched n=%d B=%d w=%d row %d: %v != %v", n, bs, workers, k, got[k], want[k])
					}
				}
				// MADE's full-recompute flip oracle, through the same reduction.
				clear(got)
				NewBatchedEvalWith(m.NewFullFlipBatchEvaluator(workers)).LocalEnergies(h, b, workers, got)
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("fullflip n=%d B=%d w=%d row %d: %v != %v", n, bs, workers, k, got[k], want[k])
					}
				}
			}
		}
		mc := hamiltonian.NewMaxCut(graph.RandomBernoulli(n, r))
		dups := dupBatches(n, r)
		for _, workers := range []int{1, 2, 5} {
			evals := []struct {
				name string
				e    *BatchedEval
			}{
				{"batched", NewBatchedEval(m, EvalAuto, workers)},
				{"fullflip", NewBatchedEvalWith(m.NewFullFlipBatchEvaluator(workers))},
			}
			for i, b := range dups {
				for _, ham := range []hamiltonian.Hamiltonian{h, mc} {
					want := make([]float64, b.N)
					LocalEnergies(ham, m, b, 1, want)
					for _, ev := range evals {
						got := nans(b.N)
						ev.e.LocalEnergies(ham, b, workers, got)
						for k := range got {
							if got[k] != want[k] {
								t.Fatalf("%s %T n=%d w=%d dup batch %d row %d: %v != %v",
									ev.name, ham, n, workers, i, k, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestFillOwsBatchedBitIdentical: batched O_k rows equal the per-row scalar
// GradLogPsi exactly for every worker count, on a random batch and on
// duplicate-heavy batches through one reused evaluator.
func TestFillOwsBatchedBitIdentical(t *testing.T) {
	n := 9
	r := rng.New(61)
	m := nn.NewMADE(n, 11, r.Split())
	b := sampler.NewBatch(37, n)
	r.FillBits(b.Bits)
	batches := append([]*sampler.Batch{b}, dupBatches(n, r)...)
	for _, workers := range []int{1, 2, 5} {
		e := NewBatchedEval(m, EvalAuto, workers)
		for bi, b := range batches {
			want := tensor.NewBatch(b.N, m.NumParams())
			for k := 0; k < b.N; k++ {
				m.GradLogPsi(b.Row(k), want.Sample(k))
			}
			got := &tensor.Batch{N: b.N, Dim: m.NumParams(), Data: nans(b.N * m.NumParams())}
			e.FillOws(b, got)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("w=%d batch %d: ows element %d batched %v != scalar %v", workers, bi, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGradientWorkerInvariance pins the fixed-block reduction: the
// gradient of one step on a frozen batch must be bitwise identical across
// worker counts, streamed slab by slab and materialized whole (SR) alike.
func TestGradientWorkerInvariance(t *testing.T) {
	n := 8
	r := rng.New(81)
	h := hamiltonian.RandomTIM(n, r)
	fixed := sampler.NewBatch(70, n) // deliberately not a block multiple
	r.FillBits(fixed.Bits)

	grad := func(workers int, useSR bool) tensor.Vector {
		m := nn.NewMADE(n, 10, rng.New(82))
		cfg := Config{BatchSize: fixed.N, Workers: workers}
		if useSR {
			// SR materializes the O_k rows; nullOpt keeps params frozen so
			// the raw gradient is comparable.
			cfg.SR = optimizer.NewSR(1e-3)
		}
		tr := New(h, m, &frozenSampler{src: fixed}, &nullOpt{}, cfg)
		tr.Step()
		return tr.lastGrad().Clone()
	}

	for _, useSR := range []bool{false, true} {
		ref := grad(1, useSR)
		for _, workers := range []int{2, 5} {
			got := grad(workers, useSR)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("sr=%v: grad[%d] differs between workers 1 and %d: %v vs %v",
						useSR, i, workers, ref[i], got[i])
				}
			}
		}
	}
}

// --- the headline perf benchmarks (ISSUE 4 acceptance working point) ---

func benchLocalEnergies(b *testing.B, mode string, workers int) {
	b.Helper()
	const n, hsz, bs = 32, 64, 1024
	r := rng.New(1)
	tim := hamiltonian.RandomTIM(n, r)
	m := nn.NewMADE(n, hsz, r.Split())
	batch := sampler.NewBatch(bs, n)
	r.FillBits(batch.Bits)
	out := make([]float64, bs)
	var bev *BatchedEval
	switch mode {
	case "batched":
		bev = NewBatchedEval(m, EvalAuto, workers)
	case "fullflip":
		bev = NewBatchedEvalWith(m.NewFullFlipBatchEvaluator(workers))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bev != nil {
			bev.LocalEnergies(tim, batch, workers, out)
		} else {
			LocalEnergies(tim, m, batch, workers, out)
		}
	}
}

// BenchmarkLocalEnergiesScalar and BenchmarkLocalEnergiesBatched compare
// the per-sample FlipCache path against the fused flip-super-batch GEMM
// path at the acceptance working point (TIM n=32, h=64, B=1024);
// BenchmarkLocalEnergiesBatchedFullFlip drives the full-recompute reference
// evaluator — the PR 4 batched baseline the tail-only acceptance ratio is
// measured against.
func BenchmarkLocalEnergiesScalar(b *testing.B)          { benchLocalEnergies(b, "scalar", 0) }
func BenchmarkLocalEnergiesBatched(b *testing.B)         { benchLocalEnergies(b, "batched", 0) }
func BenchmarkLocalEnergiesBatchedFullFlip(b *testing.B) { benchLocalEnergies(b, "fullflip", 0) }

// BenchmarkFillOwsBatched times the gradient (O_k) evaluation at the same
// working point.
func BenchmarkFillOwsBatched(b *testing.B) {
	const n, hsz, bs = 32, 64, 1024
	r := rng.New(2)
	m := nn.NewMADE(n, hsz, r.Split())
	batch := sampler.NewBatch(bs, n)
	r.FillBits(batch.Bits)
	ows := tensor.NewBatch(bs, m.NumParams())
	bev := NewBatchedEval(m, EvalAuto, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bev.FillOws(batch, ows)
	}
}

// TestBatchedEvalLogPsiBitIdentical: the serving layer's shared amplitude
// dispatch must reproduce per-row scalar LogPsi with exact ==, for every
// model family and independent of batch composition — the row-local
// property the cross-request coalescer's invariance and the distinct-row
// pass rest on — including duplicate-heavy batches through one reused
// evaluator at every worker count.
func TestBatchedEvalLogPsiBitIdentical(t *testing.T) {
	const n = 9
	models := []struct {
		name string
		wf   nn.Wavefunction
	}{
		{"made", nn.NewMADE(n, 11, rng.New(901))},
		{"rbm", nn.NewRBM(n, 11, rng.New(902))},
		{"nade", nn.NewNADE(n, 11, rng.New(903))},
	}
	for _, mc := range models {
		for _, bs := range []int{1, 3, 64} {
			b := sampler.NewBatch(bs, n)
			rng.New(uint64(910 + bs)).FillBits(b.Bits)
			e := NewBatchedEval(mc.wf, EvalAuto, 2)
			if e == nil {
				t.Fatalf("%s: no batched path", mc.name)
			}
			got := make([]float64, bs)
			e.LogPsi(b, got)
			for k := 0; k < bs; k++ {
				if want := mc.wf.LogPsi(b.Row(k)); got[k] != want {
					t.Fatalf("%s B=%d row %d: batched %v != scalar %v", mc.name, bs, k, got[k], want)
				}
			}
			// Row-composition invariance: the same row inside a batch of
			// strangers must produce the same bytes as a single-row batch.
			one := sampler.NewBatch(1, n)
			copy(one.Bits, b.Row(bs-1))
			solo := make([]float64, 1)
			e.LogPsi(one, solo)
			if solo[0] != got[bs-1] {
				t.Fatalf("%s: solo %v != coalesced %v", mc.name, solo[0], got[bs-1])
			}
		}
		dups := dupBatches(n, rng.New(920))
		for _, workers := range []int{1, 2, 5} {
			e := NewBatchedEval(mc.wf, EvalAuto, workers)
			for i, b := range dups {
				got := nans(b.N)
				e.LogPsi(b, got)
				for k := 0; k < b.N; k++ {
					if want := mc.wf.LogPsi(b.Row(k)); got[k] != want {
						t.Fatalf("%s w=%d dup batch %d row %d: batched %v != scalar %v", mc.name, workers, i, k, got[k], want)
					}
				}
			}
		}
	}
}
