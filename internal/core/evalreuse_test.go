package core

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// TestEvaluateBestReusesWorkspace pins the evaluation-workspace cache:
// same-size calls must reuse one batch and locals buffer (TrainUntil
// evaluates every iteration, so per-call allocation was a real cost), while
// a size change reallocates, and results stay valid throughout.
func TestEvaluateBestReusesWorkspace(t *testing.T) {
	n := 8
	tim := hamiltonian.RandomTIM(n, rng.New(3))
	r := rng.New(4)
	m := nn.NewMADE(n, 12, r.Split())
	smp := sampler.NewAutoBatched(m.NumSites(), m, 1, r.Split())
	tr := New(tim, m, smp, optimizer.NewAdam(0.01), Config{BatchSize: 32, Workers: 1})

	mean1, _, best1, arg1 := tr.EvaluateBest(64)
	first := tr.evalBatch
	if first == nil || first.N != 64 || len(tr.evalLocals) != 64 {
		t.Fatalf("workspace not cached: %+v", tr.evalBatch)
	}
	mean2, _, best2, arg2 := tr.EvaluateBest(64)
	if tr.evalBatch != first {
		t.Fatal("same-size EvaluateBest reallocated the cached batch")
	}
	if best1 > mean1 {
		t.Fatalf("best %v above mean %v", best1, mean1)
	}
	if len(arg1) != n || len(arg2) != n {
		t.Fatalf("argBest lengths %d, %d", len(arg1), len(arg2))
	}
	// The returned configuration must be a copy, not an alias into the
	// reused workspace (the next call overwrites the batch).
	copy1 := append([]int(nil), arg2...)
	tr.EvaluateBest(64)
	for i := range arg2 {
		if arg2[i] != copy1[i] {
			t.Fatal("argBest aliases the reused evaluation workspace")
		}
	}
	_ = mean2
	_ = best2

	// A different batch size must resize the workspace.
	tr.EvaluateBest(16)
	if tr.evalBatch == first || tr.evalBatch.N != 16 {
		t.Fatalf("size change did not resize workspace: N=%d", tr.evalBatch.N)
	}
}
