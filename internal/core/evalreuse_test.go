package core

import (
	"slices"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// TestEvaluateBestReusesWorkspace: EvaluateBest evaluates on the step's own
// batch evaluator at any evaluation size, and what it returns stays valid
// across calls — best is the local energy of argBest, and argBest is a copy
// that a later call does not overwrite.
func TestEvaluateBestReusesWorkspace(t *testing.T) {
	n := 8
	tim := hamiltonian.RandomTIM(n, rng.New(3))
	r := rng.New(4)
	m := nn.NewMADE(n, 12, r.Split())
	smp := sampler.NewAutoBatched(m.NumSites(), m, 1, r.Split())
	tr := New(tim, m, smp, optimizer.NewAdam(0.01), Config{BatchSize: 32, Workers: 1})
	bev := tr.step.bev

	check := func(size int) []int {
		mean, _, best, arg := tr.EvaluateBest(size)
		if best > mean {
			t.Fatalf("size %d: best %v above mean %v", size, best, mean)
		}
		if len(arg) != n {
			t.Fatalf("size %d: argBest has %d sites", size, len(arg))
		}
		b := sampler.NewBatch(1, n)
		copy(b.Row(0), arg)
		got := make([]float64, 1)
		LocalEnergies(tim, m, b, 1, got)
		if got[0] != best {
			t.Fatalf("size %d: argBest's local energy %v, best %v", size, got[0], best)
		}
		if tr.step.bev != bev {
			t.Fatalf("size %d: EvaluateBest replaced the step's evaluator", size)
		}
		return arg
	}
	arg := check(64)
	kept := slices.Clone(arg)
	check(64)
	check(16)
	if !slices.Equal(arg, kept) {
		t.Fatal("a later EvaluateBest overwrote an earlier argBest")
	}
}
