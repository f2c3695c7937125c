package core

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// TestAllWavefunctionFamiliesSolveTIM is the cross-model integration test:
// every architecture in the library (MADE and NADE with exact sampling;
// RBM with MCMC) must drive the same small TIM instance close to its exact
// ground energy through the same trainer.
func TestAllWavefunctionFamiliesSolveTIM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model integration test skipped in -short mode")
	}
	const n = 7
	r := rng.New(101)
	h := hamiltonian.RandomTIM(n, r)
	ex, err := exact.GroundState(h, 0, 102)
	if err != nil {
		t.Fatal(err)
	}

	type setup struct {
		name   string
		model  Model
		smp    sampler.Sampler
		lr     float64
		maxGap float64
	}
	var setups []setup

	made := nn.NewMADE(n, 14, rng.New(1))
	setups = append(setups, setup{"MADE+AUTO", made,
		sampler.NewAutoBatched(made.NumSites(), made, 2, rng.New(2)), 0.05, 0.06})

	nade := nn.NewNADE(n, 14, rng.New(3))
	setups = append(setups, setup{"NADE+AUTO", nade,
		sampler.NewAutoBatched(n, nade, 2, rng.New(4)), 0.05, 0.06})

	rbm := nn.NewRBM(n, n, rng.New(7))
	setups = append(setups, setup{"RBM+MCMC", rbm,
		sampler.NewMCMC(rbm, sampler.MCMCConfig{Chains: 2, BurnIn: 200}, rng.New(8)), 0.02, 0.12})

	for _, s := range setups {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tr := New(h, s.model, s.smp, optimizer.NewAdam(s.lr),
				Config{BatchSize: 256, Workers: 2})
			tr.Train(300, nil)
			mean, _ := tr.Evaluate(512)
			gap := (mean - ex.Energy) / math.Abs(ex.Energy)
			if gap > s.maxGap {
				t.Fatalf("%s: energy %v vs exact %v (gap %.3f > %.3f)",
					s.name, mean, ex.Energy, gap, s.maxGap)
			}
			if mean < ex.Energy-0.5 {
				t.Fatalf("%s: energy %v below exact minimum %v", s.name, mean, ex.Energy)
			}
		})
	}
}

// TestLocalEnergiesAgreeAcrossModels: for the same configuration batch, the
// local-energy machinery must match the dense reference for every
// cache-building wavefunction family.
func TestLocalEnergiesAgreeAcrossModels(t *testing.T) {
	const n = 5
	r := rng.New(103)
	h := hamiltonian.RandomTIM(n, r)
	models := []Model{
		nn.NewMADE(n, 6, rng.New(9)),
		nn.NewNADE(n, 6, rng.New(10)),
		nn.NewRBM(n, 6, rng.New(12)),
	}
	b := sampler.NewBatch(8, n)
	for i := range b.Bits {
		b.Bits[i] = r.Bit()
	}
	for _, m := range models {
		out := make([]float64, b.N)
		LocalEnergies(h, m, b, 2, out)
		for k := 0; k < b.N; k++ {
			want := denseLocalEnergy(h, m, b.Row(k))
			if math.Abs(out[k]-want) > 1e-8 {
				t.Fatalf("%T sample %d: %v vs dense %v", m, k, out[k], want)
			}
		}
	}
}
