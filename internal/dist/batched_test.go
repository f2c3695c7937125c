package dist

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// buildEvalTrainer assembles an L-replica trainer whose replicas all use
// the given evaluation mode end to end (matching sampler + evaluator), with
// SR optionally enabled.
func buildEvalTrainer(t *testing.T, mode core.EvalMode, n, h, L, mb, workers int, useSR bool) *Trainer {
	t.Helper()
	tim := hamiltonian.RandomTIM(n, rng.New(91))
	streams := rng.New(92).SplitN(L)
	reps := make([]Replica, L)
	for r := 0; r < L; r++ {
		m := nn.NewMADE(n, h, rng.New(93))
		var smp sampler.Sampler
		if mode == core.EvalScalar {
			smp = sampler.NewAutoMADE(m, true, 1, streams[r])
		} else {
			smp = sampler.NewAutoBatched(n, m, 1, streams[r])
		}
		var opt optimizer.Optimizer = optimizer.NewAdam(0.01)
		var sr *optimizer.SR
		if useSR {
			opt = optimizer.NewSGD(0.1)
			sr = optimizer.NewSR(1e-3)
		}
		reps[r] = Replica{Model: m, Smp: smp, Opt: opt, SR: sr,
			Workers: workers, Eval: mode}
	}
	tr, err := New(tim, reps, mb)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDistBatchedTrajectoryBitIdentical is the distributed acceptance
// property of the batched evaluation path: a 50-step distributed SR
// trajectory (and a plain REINFORCE one) run entirely through the batched
// stack — batched ancestral sampling, batched local energies, batched O_k
// rows — must leave parameters and statistics EXACTLY equal to the scalar
// stack, replica consistency intact throughout.
func TestDistBatchedTrajectoryBitIdentical(t *testing.T) {
	const (
		n, h, L, mb = 7, 9, 2, 8
		steps       = 50
	)
	for _, useSR := range []bool{false, true} {
		scalar := buildEvalTrainer(t, core.EvalScalar, n, h, L, mb, 2, useSR)
		batched := buildEvalTrainer(t, core.EvalAuto, n, h, L, mb, 2, useSR)
		if !batched.steps[0].Batched() {
			t.Fatal("batched trainer did not engage the batched evaluator")
		}
		hs := mustTrain(t, scalar, steps)
		hb := mustTrain(t, batched, steps)
		for i := range hs {
			if hs[i] != hb[i] {
				t.Fatalf("sr=%v iter %d: scalar %+v != batched %+v", useSR, i, hs[i], hb[i])
			}
		}
		for r := 0; r < L; r++ {
			ps := scalar.Reps[r].Model.Params()
			pb := batched.Reps[r].Model.Params()
			for i := range ps {
				if ps[i] != pb[i] {
					t.Fatalf("sr=%v replica %d param %d: scalar %v != batched %v",
						useSR, r, i, ps[i], pb[i])
				}
			}
		}
		if err := batched.CheckConsistent(); err != nil {
			t.Fatalf("sr=%v: batched replicas diverged: %v", useSR, err)
		}
	}
}

// TestDistRBMBatchedTrajectoryBitIdentical: the RBM BatchEvaluator rides
// the distributed trainer unchanged — L MCMC-sampling RBM replicas trained
// through the batched evaluator must leave exactly the scalar stack's
// parameters, with replica consistency intact (the two-level replica x
// worker scheme never sees which path produced the local energies).
func TestDistRBMBatchedTrajectoryBitIdentical(t *testing.T) {
	const (
		n, h, L, mb = 6, 8, 2, 8
		steps       = 30
	)
	build := func(mode core.EvalMode) *Trainer {
		tim := hamiltonian.RandomTIM(n, rng.New(181))
		streams := rng.New(182).SplitN(L)
		reps := make([]Replica, L)
		for r := 0; r < L; r++ {
			m := nn.NewRBM(n, h, rng.New(183))
			smp := sampler.NewMCMC(m, sampler.MCMCConfig{Chains: 2, BurnIn: 20}, streams[r])
			reps[r] = Replica{Model: m, Smp: smp, Opt: optimizer.NewSGD(0.1),
				SR: optimizer.NewSR(1e-3), Workers: 2, Eval: mode}
		}
		tr, err := New(tim, reps, mb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	scalar := build(core.EvalScalar)
	batched := build(core.EvalAuto)
	if !batched.steps[0].Batched() {
		t.Fatal("RBM replicas did not engage the batched evaluator")
	}
	hs := mustTrain(t, scalar, steps)
	hb := mustTrain(t, batched, steps)
	for i := range hs {
		if hs[i] != hb[i] {
			t.Fatalf("iter %d: scalar %+v != batched %+v", i, hs[i], hb[i])
		}
	}
	for r := 0; r < L; r++ {
		ps := scalar.Reps[r].Model.Params()
		pb := batched.Reps[r].Model.Params()
		for i := range ps {
			if ps[i] != pb[i] {
				t.Fatalf("replica %d param %d: scalar %v != batched %v", r, i, ps[i], pb[i])
			}
		}
	}
	if err := batched.CheckConsistent(); err != nil {
		t.Fatalf("batched RBM replicas diverged: %v", err)
	}
}

// TestDistMixedEvalModesStayConsistent: because the batched path is
// bitwise identical to the scalar one, replicas may MIX evaluation modes
// (like they may mix worker counts) and still remain bit-identical to each
// other — the strongest form of the interchangeability guarantee.
func TestDistMixedEvalModesStayConsistent(t *testing.T) {
	const (
		n, h, L, mb = 6, 8, 3, 8
		steps       = 25
	)
	tim := hamiltonian.RandomTIM(n, rng.New(95))
	streams := rng.New(96).SplitN(L)
	reps := make([]Replica, L)
	for r := 0; r < L; r++ {
		m := nn.NewMADE(n, h, rng.New(97))
		mode := core.EvalScalar
		if r%2 == 0 {
			mode = core.EvalAuto
		}
		// Samplers must stay scalar-equivalent streams; both modes are,
		// so mix them too.
		var smp sampler.Sampler
		if mode == core.EvalScalar {
			smp = sampler.NewAutoMADE(m, true, 1, streams[r])
		} else {
			smp = sampler.NewAutoBatched(n, m, 1, streams[r])
		}
		reps[r] = Replica{Model: m, Smp: smp, Opt: optimizer.NewSGD(0.1),
			SR: optimizer.NewSR(1e-3), Workers: 1 + r, Eval: mode}
	}
	tr, err := New(tim, reps, mb)
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, tr, steps)
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("mixed-mode replicas diverged: %v", err)
	}
}
