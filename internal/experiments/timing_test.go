package experiments

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

func TestTrainUntilHitsTarget(t *testing.T) {
	r := rng.New(13)
	n := 8
	g := graph.RandomBernoulli(n, r)
	mc := hamiltonian.NewMaxCut(g)
	m := nn.NewMADE(n, 10, r.Split())
	smp := sampler.NewAutoBatched(m.NumSites(), m, 2, r.Split())
	tr, err := dist.New(mc, []dist.Replica{{Model: m, Smp: smp, Opt: optimizer.NewAdam(0.05), Workers: 2}}, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Random cut achieves ~|E|/2; target modestly above it.
	target := 0.55 * g.TotalWeight()
	res, err := trainUntil(tr, target, mc.CutFromEnergy, 400, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("did not reach target %v; final score %v", target, res.Score)
	}
	if res.TrainTime <= 0 || res.Iters <= 0 {
		t.Fatalf("bogus hit result %+v", res)
	}
}
