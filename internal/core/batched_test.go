package core

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// TestLocalEnergiesBatchedBitIdentical: the batched flip-super-batch path
// and MADE's full-recompute flip oracle must both reproduce the scalar
// FlipCache path with exact ==, across the acceptance grid of batch sizes,
// worker counts and site counts.
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
				LocalEnergiesBatched(h, m, b, workers, got)
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
	}
}

// TestFillOwsBatchedBitIdentical: batched O_k rows equal the scalar rows
// exactly for every worker count.
func TestFillOwsBatchedBitIdentical(t *testing.T) {
	n := 9
	r := rng.New(61)
	m := nn.NewMADE(n, 11, r.Split())
	b := sampler.NewBatch(37, n)
	r.FillBits(b.Bits)
	want := tensor.NewBatch(b.N, m.NumParams())
	evals := []nn.GradEvaluator{m.NewGradEvaluator()}
	FillOws(evals, b, want, 1)
	for _, workers := range []int{1, 2, 5} {
		e := NewBatchedEval(m, EvalAuto, workers)
		got := tensor.NewBatch(b.N, m.NumParams())
		e.FillOws(b, got)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("w=%d: ows element %d batched %v != scalar %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// buildEquivTrainer assembles a trainer in the given eval mode whose
// sampler matches the mode (batched ancestral vs scalar incremental) —
// both stacks end to end, as parvqmc.Train wires them.
func buildEquivTrainer(n, hsz, bs, workers int, mode EvalMode, useSR bool) *Trainer {
	tim := hamiltonian.RandomTIM(n, rng.New(71))
	m := nn.NewMADE(n, hsz, rng.New(72))
	var smp sampler.Sampler
	if mode == EvalScalar {
		smp = sampler.NewAutoMADE(m, true, workers, rng.New(73))
	} else {
		smp = sampler.NewAutoBatched(n, m, workers, rng.New(73))
	}
	cfg := Config{BatchSize: bs, Workers: workers, Eval: mode}
	var opt optimizer.Optimizer = optimizer.NewAdam(0.02)
	if useSR {
		opt = optimizer.NewSGD(0.1)
		cfg.SR = optimizer.NewSR(1e-3)
	}
	return New(tim, m, smp, opt, cfg)
}

// TestTrainerBatchedTrajectoryBitIdentical: 50 full training steps of the
// batched stack (batched sampler + batched energies + batched gradients)
// must leave EXACTLY the parameters, energies and statistics of the scalar
// stack — with and without stochastic reconfiguration, at several worker
// counts.
func TestTrainerBatchedTrajectoryBitIdentical(t *testing.T) {
	for _, useSR := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			scalar := buildEquivTrainer(7, 9, 64, workers, EvalScalar, useSR)
			batched := buildEquivTrainer(7, 9, 64, workers, EvalAuto, useSR)
			if batched.step.bev == nil {
				t.Fatal("batched trainer did not engage the batched evaluator")
			}
			hs := scalar.Train(50, nil)
			hb := batched.Train(50, nil)
			for i := range hs {
				if hs[i] != hb[i] {
					t.Fatalf("sr=%v w=%d iter %d: scalar %+v != batched %+v",
						useSR, workers, i, hs[i], hb[i])
				}
			}
			ps, pb := scalar.Model.Params(), batched.Model.Params()
			for i := range ps {
				if ps[i] != pb[i] {
					t.Fatalf("sr=%v w=%d: param %d scalar %v != batched %v",
						useSR, workers, i, ps[i], pb[i])
				}
			}
		}
	}
}

// buildRBMTrainer assembles an RBM trainer on the MCMC (or Gibbs) pipeline
// in the given eval mode. The sampler is scalar in both modes (MCMC chains
// are inherently sequential); the batched path fuses the local-energy and
// gradient evaluation that follows it.
func buildRBMTrainer(gibbs bool, workers int, mode EvalMode, useSR bool) *Trainer {
	tim := hamiltonian.RandomTIM(6, rng.New(171))
	m := nn.NewRBM(6, 8, rng.New(172))
	var smp sampler.Sampler
	if gibbs {
		smp = sampler.NewGibbs(m, sampler.MCMCConfig{Chains: 2, BurnIn: 5}, rng.New(173))
	} else {
		smp = sampler.NewMCMC(m, sampler.MCMCConfig{Chains: 2, BurnIn: 30}, rng.New(173))
	}
	cfg := Config{BatchSize: 48, Workers: workers, Eval: mode}
	var opt optimizer.Optimizer = optimizer.NewAdam(0.02)
	if useSR {
		opt = optimizer.NewSGD(0.1)
		cfg.SR = optimizer.NewSR(1e-3)
	}
	return New(tim, m, smp, opt, cfg)
}

// TestRBMTrainerBatchedTrajectoryBitIdentical: with the RBM now satisfying
// the BatchEvaluator contract, 40 full MCMC- and Gibbs-pipeline training
// steps through the batched evaluator must leave EXACTLY the parameters and
// statistics of the scalar path — the delta-based flip contract is what
// makes exp(delta) interchangeable between the paths for an incremental
// (non-fresh-forward) flip cache.
func TestRBMTrainerBatchedTrajectoryBitIdentical(t *testing.T) {
	for _, gibbs := range []bool{false, true} {
		for _, useSR := range []bool{false, true} {
			scalar := buildRBMTrainer(gibbs, 2, EvalScalar, useSR)
			batched := buildRBMTrainer(gibbs, 2, EvalAuto, useSR)
			if batched.step.bev == nil {
				t.Fatal("RBM trainer did not engage the batched evaluator")
			}
			hs := scalar.Train(40, nil)
			hb := batched.Train(40, nil)
			for i := range hs {
				if hs[i] != hb[i] {
					t.Fatalf("gibbs=%v sr=%v iter %d: scalar %+v != batched %+v",
						gibbs, useSR, i, hs[i], hb[i])
				}
			}
			ps, pb := scalar.Model.Params(), batched.Model.Params()
			for i := range ps {
				if ps[i] != pb[i] {
					t.Fatalf("gibbs=%v sr=%v: param %d scalar %v != batched %v",
						gibbs, useSR, i, ps[i], pb[i])
				}
			}
		}
	}
}

// TestGradientWorkerInvariance pins the fixed-block reduction: the
// gradient of one step on a frozen batch must be bitwise identical across
// worker counts, on the scalar streaming, scalar materialized (SR) and
// batched paths alike.
func TestGradientWorkerInvariance(t *testing.T) {
	n := 8
	r := rng.New(81)
	h := hamiltonian.RandomTIM(n, r)
	fixed := sampler.NewBatch(70, n) // deliberately not a block multiple
	r.FillBits(fixed.Bits)

	grad := func(workers int, mode EvalMode, useSR bool) tensor.Vector {
		m := nn.NewMADE(n, 10, rng.New(82))
		cfg := Config{BatchSize: fixed.N, Workers: workers, Eval: mode}
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
		for _, mode := range []EvalMode{EvalScalar, EvalAuto} {
			ref := grad(1, mode, useSR)
			for _, workers := range []int{2, 5} {
				got := grad(workers, mode, useSR)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("sr=%v mode=%d: grad[%d] differs between workers 1 and %d: %v vs %v",
							useSR, mode, i, workers, ref[i], got[i])
					}
				}
			}
		}
		// And across modes: the batched gradient equals the scalar one.
		s, b := grad(3, EvalScalar, useSR), grad(2, EvalAuto, useSR)
		for i := range s {
			if s[i] != b[i] {
				t.Fatalf("sr=%v: grad[%d] scalar %v != batched %v", useSR, i, s[i], b[i])
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

func benchFillOws(b *testing.B, batched bool) {
	b.Helper()
	const n, hsz, bs = 32, 64, 1024
	r := rng.New(2)
	m := nn.NewMADE(n, hsz, r.Split())
	batch := sampler.NewBatch(bs, n)
	r.FillBits(batch.Bits)
	ows := tensor.NewBatch(bs, m.NumParams())
	evals := make([]nn.GradEvaluator, 8)
	for i := range evals {
		evals[i] = m.NewGradEvaluator()
	}
	bev := NewBatchedEval(m, EvalAuto, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			bev.FillOws(batch, ows)
		} else {
			FillOws(evals, batch, ows, 8)
		}
	}
}

// BenchmarkFillOwsScalar and BenchmarkFillOwsBatched compare the gradient
// (O_k) evaluation paths at the same working point.
func BenchmarkFillOwsScalar(b *testing.B)  { benchFillOws(b, false) }
func BenchmarkFillOwsBatched(b *testing.B) { benchFillOws(b, true) }

// TestBatchedEvalLogPsiBitIdentical: the serving layer's shared amplitude
// dispatch must reproduce per-row scalar LogPsi with exact ==, for every
// model family and independent of batch composition — the row-local
// property the cross-request coalescer's invariance rests on.
func TestBatchedEvalLogPsiBitIdentical(t *testing.T) {
	const n = 9
	models := []struct {
		name string
		wf   nn.Wavefunction
	}{
		{"made", nn.NewMADE(n, 11, rng.New(901))},
		{"rbm", nn.NewRBM(n, 11, rng.New(902))},
		{"nade", nn.NewNADE(n, 11, rng.New(903))},
		{"rnn", nn.NewRNN(n, 11, rng.New(904))},
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
	}
}
