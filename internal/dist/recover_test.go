package dist

// Acceptance suite for the fail-stop recovery path: an injected single-rank
// failure must (a) surface as an error on every survivor within the
// collective deadline — never a hang — and (b) be fully recoverable, with
// the recovered run finishing BIT-IDENTICAL (exact ==, no tolerance) to an
// uninterrupted run. The bit-identity half is the strong claim: recovery is
// not "approximately resumed", it replays the failed step with the exact
// draws, reductions and update the healthy run would have performed.

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// recoveryDeadline bounds every collective blocking point in these tests.
// Generous enough for -race on a loaded CI box, small enough that a hang
// regression fails the suite quickly instead of tripping the package
// timeout.
const recoveryDeadline = 250 * time.Millisecond

// madeBuilder is the ReplicaBuilder for MADE-based trainers: a fresh
// autoregressive sampler around the checkpoint-loaded model. The sampler
// seed is deliberately junk — Recover rewinds the replacement to the dead
// rank's exact stream position — and the optimizer/SR fields are likewise
// placeholders Recover overwrites with survivor-derived state.
func madeBuilder(rank int, model Model) (Replica, error) {
	m, ok := model.(*nn.MADE)
	if !ok {
		return Replica{}, errors.New("checkpoint did not round-trip a *MADE")
	}
	return Replica{
		Model: m,
		Smp:   sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(0xDEAD)),
		Opt:   optimizer.NewSGD(1), // replaced by the survivor clone
	}, nil
}

// rbmBuilder is the ReplicaBuilder for RBM+MCMC trainers; chain count must
// match the dead rank's sampler shape (Restore checks it), everything else
// is overwritten by Recover.
func rbmBuilder(chains int) ReplicaBuilder {
	return func(rank int, model Model) (Replica, error) {
		m, ok := model.(*nn.RBM)
		if !ok {
			return Replica{}, errors.New("checkpoint did not round-trip an *RBM")
		}
		return Replica{
			Model:   m,
			Smp:     sampler.NewMCMC(m, sampler.MCMCConfig{Chains: chains, BurnIn: 20}, rng.New(0xDEAD)),
			Opt:     optimizer.NewSGD(1),
			Workers: 2,
		}, nil
	}
}

// runWithRecovery drives tr for exactly `steps` iterations, recovering (at
// most once) through Recover when a step fails and replaying the failed
// iteration on the rebuilt trainer. Returns the full per-iteration history,
// the final trainer, and the iteration the failure hit (0 if none).
func runWithRecovery(t *testing.T, tr *Trainer, steps int, dir string, build ReplicaBuilder) ([]core.IterStats, *Trainer, int) {
	t.Helper()
	hist := make([]core.IterStats, 0, steps)
	failed := 0
	for step := 1; step <= steps; {
		s, err := tr.Step(step)
		if err == nil {
			hist = append(hist, s)
			step++
			continue
		}
		if failed != 0 {
			t.Fatalf("second failure at step %d after recovering from step %d: %v", step, failed, err)
		}
		failed = step
		if got := tr.FailedStep(); got != step {
			t.Fatalf("FailedStep() = %d, want %d", got, step)
		}
		if tr.GroupErr() == nil {
			t.Fatal("failed step left the group un-condemned")
		}
		if len(tr.DeadRanks()) == 0 {
			t.Fatalf("failed step reported no dead ranks: %v", err)
		}
		nt, rerr := tr.Recover(dir, build)
		if rerr != nil {
			t.Fatalf("Recover after step-%d failure: %v", step, rerr)
		}
		tr = nt // replay the failed step on the rebuilt trainer
	}
	return hist, tr, failed
}

// assertIdenticalRun pins the bit-identity acceptance bound: identical
// iteration statistics (struct ==, covering energy, std and the SR solve
// counters) and exactly equal parameters on every replica.
func assertIdenticalRun(t *testing.T, ref, got []core.IterStats, trRef, trGot *Trainer) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("history length %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("iter %d: recovered stats %+v != uninterrupted %+v", i+1, got[i], ref[i])
		}
	}
	for r := range trRef.Reps {
		pr := trRef.Reps[r].Model.Params()
		pg := trGot.Reps[r].Model.Params()
		for i := range pr {
			if pr[i] != pg[i] {
				t.Fatalf("replica %d param %d: recovered %v != uninterrupted %v (bit-identity broken)",
					r, i, pg[i], pr[i])
			}
		}
	}
	if err := trGot.CheckConsistent(); err != nil {
		t.Fatalf("recovered trainer inconsistent: %v", err)
	}
}

// TestRecoveryBitIdenticalREINFORCE is the tentpole acceptance test on the
// plain REINFORCE path: kill each of rank 0, a middle rank and the last
// rank mid-run; the recovered run must finish bit-identical to an
// uninterrupted one. The REINFORCE step issues exactly one collective per
// rank, so FailAt(victim, k-1) deterministically kills step k.
func TestRecoveryBitIdenticalREINFORCE(t *testing.T) {
	const L, steps, failStep = 4, 24, 10
	ref := fixture{n: 8, h: 10, L: L, mb: 8, init: 101, stream: 102}.build(t)
	refHist := mustTrain(t, ref, steps)

	for _, victim := range []int{0, 2, L - 1} {
		tr := fixture{n: 8, h: 10, L: L, mb: 8, init: 101, stream: 102, deadline: recoveryDeadline}.build(t)
		tr.InjectFailure(victim, failStep-1)
		hist, tr, failed := runWithRecovery(t, tr, steps, "", madeBuilder)
		if failed != failStep {
			t.Fatalf("victim %d: failure hit step %d, want %d", victim, failed, failStep)
		}
		assertIdenticalRun(t, refHist, hist, ref, tr)
	}
}

// TestRecoveryBitIdenticalSR runs the same acceptance bar on both SR
// solvers, where a killed rank poisons a mid-solve Fisher collective: the
// survivors' CG solves bail, the step commits nothing, and the recovered
// run — replacement replica rewound to the dead rank's sampler stream and
// SR warm start — must still be bit-identical. The classic variant also
// exercises the on-disk checkpoint artifact.
func TestRecoveryBitIdenticalSR(t *testing.T) {
	const n, h, mb, steps = 7, 9, 8, 12
	tim := hamiltonian.RandomTIM(n, rng.New(41))
	pipe := optimizer.NewSR(1e-3)
	pipe.Solver = optimizer.SolverPipelined
	for _, sr := range []*optimizer.SR{optimizer.NewSR(1e-3), pipe} {
		pipelined := sr == pipe
		f := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{1, 1, 1}, init: 42, stream: 43, sgd: 0.1, sr: sr}
		ref := f.build(t)
		refHist := mustTrain(t, ref, steps)

		tr := f.build(t)
		tr.SetCollectiveDeadline(recoveryDeadline)
		// The SR schedule has many collectives per step (2 reductions plus
		// every Fisher apply); collective #40 lands mid-run, mid-solve.
		tr.InjectFailure(1, 40)
		dir := ""
		if !pipelined {
			dir = t.TempDir()
		}
		hist, tr, failed := runWithRecovery(t, tr, steps, dir, madeBuilder)
		if failed <= 1 || failed >= steps {
			t.Fatalf("pipelined=%v: failure hit step %d, want mid-run", pipelined, failed)
		}
		assertIdenticalRun(t, refHist, hist, ref, tr)
		if dir != "" {
			// The recovery checkpoint is a durable artifact of the event.
			m, err := filepath.Glob(filepath.Join(dir, "recover-step*.pvq"))
			if err != nil || len(m) != 1 {
				t.Fatalf("recovery checkpoint artifact missing: %v %v", m, err)
			}
			if _, err := nn.LoadFile(m[0]); err != nil {
				t.Fatalf("recovery checkpoint unreadable: %v", err)
			}
		}
	}
}

// TestRecoveryBitIdenticalRBMMCMC covers the second model family end to
// end: RBM replicas with persistent-chain MCMC samplers and SR. The
// replacement's Metropolis chains and rng stream are rewound to the dead
// rank's snapshot, so acceptance decisions replay identically.
func TestRecoveryBitIdenticalRBMMCMC(t *testing.T) {
	const n, h, L, mb, steps = 6, 8, 2, 8, 10
	build := func() *Trainer {
		tim := hamiltonian.RandomTIM(n, rng.New(181))
		streams := rng.New(182).SplitN(L)
		reps := make([]Replica, L)
		for r := 0; r < L; r++ {
			m := nn.NewRBM(n, h, rng.New(183))
			smp := sampler.NewMCMC(m, sampler.MCMCConfig{Chains: 2, BurnIn: 20}, streams[r])
			reps[r] = Replica{Model: m, Smp: smp, Opt: optimizer.NewSGD(0.1),
				SR: optimizer.NewSR(1e-3), Workers: 2}
		}
		tr, err := New(tim, reps, mb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build()
	refHist := mustTrain(t, ref, steps)

	tr := build()
	tr.SetCollectiveDeadline(recoveryDeadline)
	tr.InjectFailure(0, 25)
	hist, tr, failed := runWithRecovery(t, tr, steps, "", rbmBuilder(2))
	if failed <= 1 || failed >= steps {
		t.Fatalf("failure hit step %d, want mid-run", failed)
	}
	assertIdenticalRun(t, refHist, hist, ref, tr)
}

// TestDefaultDeadlineSurfacesLostRank: a trainer built as the facade
// builds one without Elastic — New, no SetCollectiveDeadline, no supervisor
// — whose rank 1 leaves the collective schedule mid-run must return an
// error wrapping comm.ErrPeerLost from Train once New's collectiveDeadline
// has passed, instead of blocking forever.
func TestDefaultDeadlineSurfacesLostRank(t *testing.T) {
	tr := fixture{n: 6, h: 8, L: 2, mb: 4, init: 231, stream: 232}.build(t)
	tr.InjectFailure(1, 3)
	start := time.Now()
	_, err := tr.Train(4, nil)
	if !errors.Is(err, comm.ErrPeerLost) {
		t.Fatalf("Train returned %v, want an error wrapping comm.ErrPeerLost", err)
	}
	if elapsed := time.Since(start); elapsed < collectiveDeadline {
		t.Fatalf("Train failed after %v, before the %v deadline could expire", elapsed, collectiveDeadline)
	}
}

// TestStepFailsWithinDeadline is the no-hang regression at the trainer
// level (run under -race in CI): when a rank dies, EVERY surviving
// replica's share of Step must error out within a small multiple of the
// collective deadline — the hang-forever failure class this PR kills.
func TestStepFailsWithinDeadline(t *testing.T) {
	const L = 4
	tr := fixture{n: 8, h: 10, L: L, mb: 8, init: 201, stream: 202, deadline: recoveryDeadline}.build(t)
	tr.InjectFailure(2, 3) // dies during step 4
	mustTrain(t, tr, 3)
	start := time.Now()
	_, err := tr.Step(4)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("step with a dead rank returned nil error")
	}
	if !errors.Is(err, comm.ErrRankKilled) {
		t.Fatalf("error does not identify the killed rank: %v", err)
	}
	if !errors.Is(err, comm.ErrPeerLost) {
		t.Fatalf("error does not carry the survivors' peer-loss: %v", err)
	}
	if limit := 20 * recoveryDeadline; elapsed > limit {
		t.Fatalf("failed step took %v, want < %v (survivors must not hang)", elapsed, limit)
	}
	// Condemned group: subsequent calls fail fast, far below the deadline.
	start = time.Now()
	if _, err := tr.Step(5); err == nil {
		t.Fatal("step on condemned group succeeded")
	}
	if _, _, err := tr.Evaluate(64); err == nil {
		t.Fatal("evaluate on condemned group succeeded")
	}
	if elapsed := time.Since(start); elapsed > recoveryDeadline {
		t.Fatalf("fail-fast path took %v", elapsed)
	}
	if got := tr.DeadRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadRanks() = %v, want [2]", got)
	}
}

// TestRecoverGuards exercises every refusal path of Recover.
func TestRecoverGuards(t *testing.T) {
	// Healthy group: nothing to recover from.
	tr := fixture{n: 6, h: 8, L: 2, mb: 4, init: 301, stream: 302}.build(t)
	mustTrain(t, tr, 2)
	if _, err := tr.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover on a healthy trainer succeeded")
	}

	// Non-resumable samplers (playback harness): recovery must refuse with
	// the reason recorded at construction.
	tim := hamiltonian.RandomTIM(6, rng.New(77))
	_, _, rec := runSerialSR(t, tim, 6, 10, 8, 4)
	pb := fixture{ham: tim, n: 6, h: 10, mb: 4, workers: slices.Repeat([]int{1}, 2), init: 21, smp: playback(rec), sgd: 0.1, sr: tightSR(), deadline: recoveryDeadline}.build(t)
	pb.InjectFailure(1, 5)
	if _, err := pb.Train(4, nil); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if _, err := pb.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover with non-resumable samplers succeeded")
	}
	// The same reason refuses the other two membership changes: Shrink on
	// the condemned trainer, Grow on a healthy one of the same kind.
	if _, err := pb.Shrink(); err == nil {
		t.Fatal("Shrink with non-resumable samplers succeeded")
	}
	if _, err := (fixture{ham: tim, n: 6, h: 10, mb: 4, workers: slices.Repeat([]int{1}, 2), init: 21, smp: playback(rec), sgd: 0.1, sr: tightSR()}).build(t).Grow("", 1, madeBuilder); err == nil {
		t.Fatal("Grow with non-resumable samplers succeeded")
	}

	// Condemned before any Step: no snapshot to rewind to.
	tr2 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 303, stream: 304, deadline: recoveryDeadline}.build(t)
	tr2.InjectFailure(0, 0)
	if _, _, err := tr2.Evaluate(16); err == nil {
		t.Fatal("evaluate with dead rank succeeded")
	}
	if _, err := tr2.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover without a step snapshot succeeded")
	}

	// A rank dies in Evaluate after completed steps: the samplers drew past
	// the last Step's entry snapshot while the parameters hold that step's
	// update, so rewinding to the snapshot would not be a replay. Recover
	// and Shrink must refuse.
	tr5 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 309, stream: 310, deadline: recoveryDeadline}.build(t)
	tr5.InjectFailure(1, 2)
	mustTrain(t, tr5, 2)
	if _, _, err := tr5.Evaluate(16); err == nil {
		t.Fatal("evaluate with dead rank succeeded")
	}
	if _, err := tr5.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover from a stale snapshot after a failed Evaluate succeeded")
	}
	if _, err := tr5.Shrink(); err == nil {
		t.Fatal("Shrink from a stale snapshot after a failed Evaluate succeeded")
	}

	// Aborted without a dead rank (straggler past the deadline): there is
	// no replica to replace, so Recover must refuse rather than guess.
	tr3 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 305, stream: 306, deadline: recoveryDeadline}.build(t)
	tr3.InjectStraggler(1, time.Hour)
	if _, err := tr3.Train(2, nil); err == nil {
		t.Fatal("straggler past the deadline did not surface")
	}
	if len(tr3.DeadRanks()) != 0 {
		t.Fatalf("straggler misreported as dead: %v", tr3.DeadRanks())
	}
	if _, err := tr3.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover with no dead rank succeeded")
	}

	// Nil builder with a dead rank to replace: an error, not a nil
	// dereference, and the trainer is still recoverable afterwards.
	tr4 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 307, stream: 308, deadline: recoveryDeadline}.build(t)
	tr4.InjectFailure(1, 2)
	if _, err := tr4.Train(4, nil); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if _, err := tr4.Recover("", nil); err == nil {
		t.Fatal("Recover with a nil builder succeeded")
	}
	if nt, err := tr4.Recover("", madeBuilder); err != nil {
		t.Fatalf("Recover after a refused attempt: %v", err)
	} else if err := nt.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesAggregateAcrossRanks pins the repaired accounting: the
// Collectives totals are the SUM over ranks (L x the per-rank count in a
// healthy run), every rank's view is identical, and CollectivesBalanced
// agrees — so a silent schedule divergence can no longer hide behind a
// rank-0-only readout.
func TestCollectivesAggregateAcrossRanks(t *testing.T) {
	const L, steps = 3, 6
	tr := fixture{n: 8, h: 10, L: L, mb: 8, init: 401, stream: 402}.build(t)
	mustTrain(t, tr, steps)
	per := tr.CollectivesByRank()
	if len(per) != L {
		t.Fatalf("CollectivesByRank returned %d rows, want %d", len(per), L)
	}
	for r := 1; r < L; r++ {
		if per[r] != per[0] {
			t.Fatalf("rank %d collectives %v != rank 0 %v", r, per[r], per[0])
		}
	}
	if per[0][0] != steps { // one blocking reduction per REINFORCE step
		t.Fatalf("per-rank blocking collectives %d, want %d", per[0][0], steps)
	}
	sync, async := tr.Collectives()
	if sync != int64(L)*per[0][0] || async != int64(L)*per[0][1] {
		t.Fatalf("Collectives() = (%d, %d), want L x per-rank (%d, %d)",
			sync, async, int64(L)*per[0][0], int64(L)*per[0][1])
	}
	if err := tr.CollectivesBalanced(); err != nil {
		t.Fatalf("healthy trainer reported unbalanced collectives: %v", err)
	}
}

// TestRecoveryCheckpointDirErrors: an unwritable checkpoint directory must
// fail Recover cleanly (survivors intact), not corrupt anything.
func TestRecoveryCheckpointDirErrors(t *testing.T) {
	const L, steps = 2, 6
	tr := fixture{n: 6, h: 8, L: L, mb: 4, init: 501, stream: 502, deadline: recoveryDeadline}.build(t)
	tr.InjectFailure(1, 2)
	if _, err := tr.Train(steps, nil); err == nil {
		t.Fatal("injected failure did not surface")
	}
	bogus := filepath.Join(t.TempDir(), "does", "not", "exist")
	if _, err := tr.Recover(bogus, madeBuilder); err == nil {
		t.Fatal("Recover into a nonexistent directory succeeded")
	}
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Fatalf("failed Recover created the directory: %v", err)
	}
	// The trainer is still condemned and still recoverable elsewhere.
	if nt, err := tr.Recover(t.TempDir(), madeBuilder); err != nil {
		t.Fatalf("Recover after a failed attempt: %v", err)
	} else if err := nt.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
