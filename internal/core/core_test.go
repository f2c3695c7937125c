package core

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// denseLocalEnergy computes l(x) = (H psi)(x) / psi(x) by materializing the
// dense matrix and the full amplitude vector.
func denseLocalEnergy(h hamiltonian.Hamiltonian, wf nn.Wavefunction, x []int) float64 {
	n := h.N()
	dim := 1 << uint(n)
	dense := hamiltonian.Dense(h)
	psi := make([]float64, dim)
	xb := make([]int, n)
	for ix := 0; ix < dim; ix++ {
		hamiltonian.IndexToBits(ix, xb)
		psi[ix] = math.Exp(wf.LogPsi(xb))
	}
	ix := hamiltonian.BitsToIndex(x)
	var hpsi float64
	for iy := 0; iy < dim; iy++ {
		hpsi += dense[ix*dim+iy] * psi[iy]
	}
	return hpsi / psi[ix]
}

func TestLocalEnergiesMatchDense(t *testing.T) {
	r := rng.New(1)
	n := 6
	h := hamiltonian.RandomTIM(n, r)
	for _, model := range []Model{nn.NewMADE(n, 5, r), nn.NewRBM(n, 4, r)} {
		b := sampler.NewBatch(10, n)
		for i := range b.Bits {
			b.Bits[i] = r.Bit()
		}
		out := make([]float64, b.N)
		LocalEnergies(h, model, b, 2, out)
		for k := 0; k < b.N; k++ {
			want := denseLocalEnergy(h, model, b.Row(k))
			if math.Abs(out[k]-want) > 1e-8 {
				t.Fatalf("sample %d: local energy %v, dense %v", k, out[k], want)
			}
		}
	}
}

func TestLocalEnergiesDiagonalFastPath(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomBernoulli(8, r)
	mc := hamiltonian.NewMaxCut(g)
	m := nn.NewMADE(8, 5, r)
	b := sampler.NewBatch(6, 8)
	for i := range b.Bits {
		b.Bits[i] = r.Bit()
	}
	out := make([]float64, 6)
	LocalEnergies(mc, m, b, 1, out)
	for k := 0; k < 6; k++ {
		if math.Abs(out[k]-mc.Diagonal(b.Row(k))) > 1e-12 {
			t.Fatal("diagonal local energy mismatch")
		}
	}
}

func newTIMTrainer(t *testing.T, n int, seed uint64, useSR bool) (*Trainer, float64) {
	t.Helper()
	r := rng.New(seed)
	h := hamiltonian.RandomTIM(n, r)
	ex, err := exact.GroundState(h, 0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if useSR {
		return madeTrainer(h, 16, 2, r, optimizer.NewSGD(0.1), Config{BatchSize: 256, Workers: 2, SR: optimizer.NewSR(1e-3)}), ex.Energy
	}
	return madeTrainer(h, 16, 2, r, optimizer.NewAdam(0.05), Config{BatchSize: 256, Workers: 2}), ex.Energy
}

// madeTrainer is the core tests' trainer fixture: a MADE of width h on
// ham's sites and its batched ancestral sampler at smpWorkers, their seeds
// split off r in that order.
func madeTrainer(ham hamiltonian.Hamiltonian, h, smpWorkers int, r *rng.Rand, opt optimizer.Optimizer, cfg Config) *Trainer {
	m := nn.NewMADE(ham.N(), h, r.Split())
	return New(ham, m, sampler.NewAutoBatched(m.NumSites(), m, smpWorkers, r.Split()), opt, cfg)
}

func TestMADEAutoConvergesToGroundState(t *testing.T) {
	tr, exactE := newTIMTrainer(t, 8, 3, false)
	hist := tr.Train(300, nil)
	final := hist[len(hist)-1]
	// Relative gap to the exact ground energy should be small, and the
	// variational inequality must hold within sampling noise.
	gap := (final.Energy - exactE) / math.Abs(exactE)
	if gap > 0.05 {
		t.Fatalf("final energy %v vs exact %v (gap %.3f)", final.Energy, exactE, gap)
	}
	if final.Energy < exactE-0.5 {
		t.Fatalf("energy %v below exact minimum %v: estimator broken", final.Energy, exactE)
	}
	// Std-dev should have shrunk substantially (Fig. 2 behaviour).
	if final.Std > hist[0].Std {
		t.Fatalf("std did not decrease: %v -> %v", hist[0].Std, final.Std)
	}
}

func TestSRConvergesFasterOrBetter(t *testing.T) {
	trPlain, exactE := newTIMTrainer(t, 8, 5, false)
	trSR, _ := newTIMTrainer(t, 8, 5, true)
	histPlain := trPlain.Train(120, nil)
	histSR := trSR.Train(120, nil)
	ePlain := histPlain[len(histPlain)-1].Energy
	eSR := histSR[len(histSR)-1].Energy
	// SR should be at least competitive on this small instance.
	if eSR > ePlain+0.10*math.Abs(exactE) {
		t.Fatalf("SR final %v much worse than plain %v (exact %v)", eSR, ePlain, exactE)
	}
}

func TestRBMMCMCTrainsOnSmallTIM(t *testing.T) {
	r := rng.New(7)
	n := 6
	h := hamiltonian.RandomTIM(n, r)
	ex, err := exact.GroundState(h, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewRBM(n, n, r.Split())
	smp := sampler.NewMCMC(m, sampler.MCMCConfig{Chains: 2, BurnIn: 200}, r.Split())
	tr := New(h, m, smp, optimizer.NewAdam(0.02), Config{BatchSize: 256, Workers: 2})
	hist := tr.Train(250, nil)
	final := hist[len(hist)-1]
	gap := (final.Energy - ex.Energy) / math.Abs(ex.Energy)
	if gap > 0.10 {
		t.Fatalf("RBM+MCMC final %v vs exact %v (gap %.3f)", final.Energy, ex.Energy, gap)
	}
}

func TestMaxCutTrainingFindsGoodCut(t *testing.T) {
	r := rng.New(9)
	n := 10
	g := graph.RandomBernoulli(n, r)
	mc := hamiltonian.NewMaxCut(g)
	bestE, _, err := exact.GroundStateDiagonal(mc, 0)
	if err != nil {
		t.Fatal(err)
	}
	bestCut := mc.CutFromEnergy(bestE)
	tr := madeTrainer(mc, 12, 2, r, optimizer.NewAdam(0.05), Config{BatchSize: 256, Workers: 2})
	tr.Train(300, nil)
	mean, _ := tr.Evaluate(512)
	cut := mc.CutFromEnergy(mean)
	if cut < 0.93*bestCut {
		t.Fatalf("converged cut %v, optimum %v", cut, bestCut)
	}
}

func TestVariationalInequalityDuringTraining(t *testing.T) {
	// Every batch-mean energy should stay above the exact ground energy up
	// to statistical noise (a few standard errors).
	tr, exactE := newTIMTrainer(t, 7, 11, false)
	hist := tr.Train(100, nil)
	for _, s := range hist {
		slack := 5 * s.Std / math.Sqrt(256)
		if s.Energy < exactE-slack-0.3 {
			t.Fatalf("iter %d: energy %v below exact %v beyond noise", s.Iter, s.Energy, exactE)
		}
	}
}

func TestTimingsAccumulate(t *testing.T) {
	tr, _ := newTIMTrainer(t, 6, 15, false)
	tr.Train(3, nil)
	tm := tr.Timings()
	if tm.Sample <= 0 || tm.Total() < tm.Sample {
		t.Fatalf("timings not accumulated: %+v", tm)
	}
}

func TestTrainCallback(t *testing.T) {
	tr, _ := newTIMTrainer(t, 6, 17, false)
	var iters []int
	tr.Train(5, func(s IterStats) { iters = append(iters, s.Iter) })
	if len(iters) != 5 || iters[0] != 1 || iters[4] != 5 {
		t.Fatalf("callback iterations %v", iters)
	}
}

func TestGradientMatchesSerialReference(t *testing.T) {
	// The parallel on-the-fly reduction must equal the SR path's
	// materialized computation for the same batch: run two trainers with
	// identical models and frozen samplers, compare gradients.
	r := rng.New(19)
	n := 6
	h := hamiltonian.RandomTIM(n, r)
	mkModel := func() *nn.MADE { return nn.NewMADE(n, 5, rng.New(42)) }

	fixed := sampler.NewBatch(32, n)
	for i := range fixed.Bits {
		fixed.Bits[i] = r.Bit()
	}
	frozen1 := &frozenSampler{src: fixed}
	frozen2 := &frozenSampler{src: fixed}

	m1, m2 := mkModel(), mkModel()
	tr1 := New(h, m1, frozen1, &nullOpt{}, Config{BatchSize: 32, Workers: 3})
	tr2 := New(h, m2, frozen2, &nullOpt{}, Config{BatchSize: 32, Workers: 1, SR: optimizer.NewSR(1)})
	tr1.Step()
	tr2.Step()
	g1, g2 := tr1.lastGrad(), tr2.lastGrad()
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-10 {
			t.Fatalf("gradient paths disagree at %d: %v vs %v", i, g1[i], g2[i])
		}
	}
}

// lastGrad is the gradient of the last step (after the collective, before
// any preconditioning): section 0 of the step's packed payload.
func (t *Trainer) lastGrad() tensor.Vector { return t.step.pack.Section(0) }

// frozenSampler replays a fixed batch, for deterministic gradient tests.
type frozenSampler struct{ src *sampler.Batch }

func (f *frozenSampler) Sample(b *sampler.Batch) { copy(b.Bits, f.src.Bits) }
func (f *frozenSampler) Cost() sampler.Cost      { return sampler.Cost{} }

// nullOpt performs no update, freezing the model.
type nullOpt struct{}

func (n *nullOpt) Step(p, g tensor.Vector) {}
func (n *nullOpt) Name() string            { return "null" }

func BenchmarkTrainerStepMADE(b *testing.B) {
	r := rng.New(1)
	n := 50
	h := hamiltonian.RandomTIM(n, r)
	tr := madeTrainer(h, 20, 0, r, optimizer.NewAdam(0.01), Config{BatchSize: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}
