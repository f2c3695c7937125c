package dist

// Acceptance suite for elastic membership. The doctrine under test: a
// shrunken trainer is a LEGAL SMALLER RUN — bit-identical (exact ==, no
// tolerance) to a fresh L−k trainer constructed from the survivors'
// parameters, optimizer state, and sampler stream positions — and a grown
// trainer is a legal larger run from the admission point. The reference
// trainers here are assembled literally that way: New() over the surviving
// (or augmented) replica structs of an uninterrupted run.

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// shrinkReference builds the doctrine's reference run for a shrink event:
// an uninterrupted L-rank trainer stepped through failStep-1, then a FRESH
// trainer assembled from the survivors' replica structs (their parameters,
// optimizer state, and sampler positions as they stand), stepped from
// failStep through steps. Returns the combined history and the final
// trainer.
func shrinkReference(t *testing.T, ref *Trainer, deadSet map[int]bool, failStep, steps int) ([]core.IterStats, *Trainer) {
	t.Helper()
	hist := make([]core.IterStats, 0, steps)
	for i := 1; i < failStep; i++ {
		hist = append(hist, mustStep(t, ref, i))
	}
	var reps []Replica
	for r := range ref.Reps {
		if !deadSet[r] {
			reps = append(reps, ref.Reps[r])
		}
	}
	small, err := New(ref.H, reps, ref.MiniBatch())
	if err != nil {
		t.Fatalf("assembling reference L-k trainer: %v", err)
	}
	for i := failStep; i <= steps; i++ {
		hist = append(hist, mustStep(t, small, i))
	}
	return hist, small
}

// runShrink drives tr into its scripted failure at failStep (0: whichever
// step fails first, which must be mid-run), shrinks, and replays/continues
// through steps. Returns the combined history, the shrunken trainer and the
// failed step.
func runShrink(t *testing.T, tr *Trainer, failStep, steps int) ([]core.IterStats, *Trainer, int) {
	t.Helper()
	hist := make([]core.IterStats, 0, steps)
	for i := 1; i <= steps; i++ {
		s, err := tr.Step(i)
		if err != nil {
			if failStep == 0 && i > 1 && i < steps {
				failStep = i
			}
			if i != failStep {
				t.Fatalf("step %d failed (%v), want the scripted failure at step %d", i, err, failStep)
			}
			break
		}
		if i == failStep {
			t.Fatalf("scripted failure at step %d did not surface", failStep)
		}
		hist = append(hist, s)
	}
	nt, err := tr.Shrink()
	if err != nil {
		t.Fatalf("Shrink after step-%d failure: %v", failStep, err)
	}
	for i := failStep; i <= steps; i++ {
		hist = append(hist, mustStep(t, nt, i))
	}
	return hist, nt, failStep
}

// TestShrinkBitIdenticalREINFORCE is the tentpole acceptance test on the
// REINFORCE path: kill rank 0, a middle rank, or the last rank of an L=4
// trainer mid-run, shrink to the three survivors, and demand the
// continuation be bit-identical to a fresh 3-replica trainer built from
// the survivors' state — including the honestly reduced IterStats.Batch.
func TestShrinkBitIdenticalREINFORCE(t *testing.T) {
	const L, mb, steps, failStep = 4, 8, 24, 10
	for _, victim := range []int{0, 2, L - 1} {
		tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 101, stream: 102, deadline: recoveryDeadline}.build(t)
		tr.InjectFailure(victim, failStep-1) // one collective per rank per step
		hist, tr, _ := runShrink(t, tr, failStep, steps)

		ref := fixture{n: 8, h: 10, L: L, mb: mb, init: 101, stream: 102}.build(t)
		refHist, refSmall := shrinkReference(t, ref, map[int]bool{victim: true}, failStep, steps)

		assertIdenticalRun(t, refHist, hist, refSmall, tr)
		if got := tr.EffectiveBatch(); got != (L-1)*mb {
			t.Fatalf("victim %d: EffectiveBatch() = %d after shrink, want %d", victim, got, (L-1)*mb)
		}
		for i, s := range hist {
			want := L * mb
			if i+1 >= failStep {
				want = (L - 1) * mb
			}
			if s.Batch != want {
				t.Fatalf("victim %d: iter %d reports batch %d, want %d", victim, i+1, s.Batch, want)
			}
		}
	}
}

// TestShrinkBitIdenticalSR runs the same acceptance bar under distributed
// stochastic reconfiguration, on both the classic and pipelined solvers: a
// rank killed mid-CG-solve poisons the step, the survivors rewind their
// samplers AND their SR warm starts, and the shrunken continuation — whose
// Fisher solve now normalizes by the smaller global batch — must match the
// fresh L−1 trainer bit-for-bit, CG solve counters included.
func TestShrinkBitIdenticalSR(t *testing.T) {
	const n, h, mb, steps = 7, 9, 8, 12
	tim := hamiltonian.RandomTIM(n, rng.New(41))
	pipe := optimizer.NewSR(1e-3)
	pipe.Solver = optimizer.SolverPipelined
	for _, sr := range []*optimizer.SR{optimizer.NewSR(1e-3), pipe} {
		f := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{1, 1, 1}, init: 42, stream: 43, sgd: 0.1, sr: sr}
		tr := f.build(t)
		tr.SetCollectiveDeadline(recoveryDeadline)
		// Collective #40 lands mid-run, mid-solve (the SR schedule issues
		// 2 reductions plus every Fisher apply per step).
		tr.InjectFailure(1, 40)
		hist, nt, failStep := runShrink(t, tr, 0, steps)
		ref := f.build(t)
		refHist, refSmall := shrinkReference(t, ref, map[int]bool{1: true}, failStep, steps)
		assertIdenticalRun(t, refHist, hist, refSmall, nt)
	}
}

// TestMultiRankDeathShrink: two ranks dying at the same collective must
// leave complete forensics and a shrinkable 2-survivor trainer whose
// continuation is the legal L=2 run.
func TestMultiRankDeathShrink(t *testing.T) {
	const L, mb, steps, failStep = 4, 8, 16, 6
	tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 111, stream: 112, deadline: recoveryDeadline}.build(t)
	tr.InjectFailure(1, failStep-1)
	tr.InjectFailure(2, failStep-1)
	hist, tr, _ := runShrink(t, tr, failStep, steps)

	if dead := tr.FailureHistory(); len(dead) != 1 || dead[0].Step != failStep ||
		len(dead[0].Dead) != 2 || dead[0].Dead[0] != 1 || dead[0].Dead[1] != 2 {
		t.Fatalf("FailureHistory() = %+v, want one record {%d [1 2]}", dead, failStep)
	}
	ref := fixture{n: 8, h: 10, L: L, mb: mb, init: 111, stream: 112}.build(t)
	refHist, refSmall := shrinkReference(t, ref, map[int]bool{1: true, 2: true}, failStep, steps)
	assertIdenticalRun(t, refHist, hist, refSmall, tr)
	if got := tr.EffectiveBatch(); got != 2*mb {
		t.Fatalf("EffectiveBatch() = %d after double shrink, want %d", got, 2*mb)
	}
}

// growBitIdentical runs f's trainer for pre steps, grows it by one rank
// whose sampler draws from newSeed (the checkpoint goes to dir), runs on to
// step post, and holds the run == to a fresh L+1 trainer: f's trainer after
// the same pre steps, plus a replica holding its parameters, a clone of its
// optimizer and SR state, and the same fresh sampler stream. It returns the
// grown trainer.
func growBitIdentical(t *testing.T, f fixture, dir string, pre, post int, newSeed uint64) *Trainer {
	t.Helper()
	grownBuilder := func(rank int, model Model) (Replica, error) {
		if _, ok := model.(*nn.MADE); !ok {
			return Replica{}, errors.New("checkpoint did not round-trip a *MADE")
		}
		// Opt is replaced by the rank-0 clone.
		return Replica{Model: model, Smp: ancestral(1)(rank, model, rng.New(newSeed)), Opt: optimizer.NewSGD(1)}, nil
	}
	run := func(tr *Trainer, from, to int, hist []core.IterStats) []core.IterStats {
		for i := from; i <= to; i++ {
			hist = append(hist, mustStep(t, tr, i))
		}
		return hist
	}
	tr := f.build(t)
	hist := run(tr, 1, pre, nil)
	grown, err := tr.Grow(dir, 1, grownBuilder)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	hist = run(grown, pre+1, post, hist)

	ref := f.build(t)
	refHist := run(ref, 1, pre, nil)
	m := nn.NewMADE(f.n, f.h, rng.New(999)) // params overwritten below
	copy(m.Params(), ref.Reps[0].Model.Params())
	nn.InvalidateParams(m)
	opt, err := optimizer.CloneOptimizerState(ref.Reps[0].Opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := Replica{Model: m, Smp: ancestral(1)(0, m, rng.New(newSeed)), Opt: opt}
	if sr := ref.Reps[0].SR; sr != nil {
		rep.SR = sr.Clone()
		rep.SR.RestoreState(sr.CaptureState())
	}
	refGrown, err := New(ref.H, append(append([]Replica(nil), ref.Reps...), rep), f.mb)
	if err != nil {
		t.Fatalf("assembling reference L+1 trainer: %v", err)
	}
	assertIdenticalRun(t, run(refGrown, pre+1, post, refHist), hist, refGrown, grown)
	return grown
}

// TestGrowBitIdenticalREINFORCE pins the growth doctrine: admitting a rank
// to a healthy L=2 trainer yields a legal L=3 run (growBitIdentical), and
// leaves a growth checkpoint on disk.
func TestGrowBitIdenticalREINFORCE(t *testing.T) {
	const L, mb = 2, 8
	dir := t.TempDir()
	grown := growBitIdentical(t, fixture{n: 8, h: 10, L: L, mb: mb, init: 121, stream: 122}, dir, 6, 12, 0xBEEF)
	if got := grown.EffectiveBatch(); got != (L+1)*mb {
		t.Fatalf("EffectiveBatch() = %d after grow, want %d", got, (L+1)*mb)
	}
	// The growth checkpoint is a durable artifact of the admission.
	if m, err := filepath.Glob(filepath.Join(dir, "grow-step*.pvq")); err != nil || len(m) != 1 {
		t.Fatalf("growth checkpoint artifact missing: %v %v", m, err)
	}
}

// TestGrowBitIdenticalSR covers the SR warm-start transplant: the admitted
// rank must enter the lockstep CG with rank 0's exact warm start, or the
// first post-grow solve diverges across ranks.
func TestGrowBitIdenticalSR(t *testing.T) {
	const n = 7
	growBitIdentical(t, fixture{ham: hamiltonian.RandomTIM(n, rng.New(51)), n: n, h: 9, mb: 8, workers: []int{1, 1},
		init: 52, stream: 53, sgd: 0.1, sr: optimizer.NewSR(1e-3), deadline: recoveryDeadline}, "", 5, 10, 0xF00D)
}

// TestForensicsStableAcrossConsecutiveFailures is the regression the
// elastic layer depends on: a second failure observed on the REBUILT
// trainer must not clobber the first failure's DeadRanks/FailedStep (each
// incarnation owns its own group), and FailureHistory must accumulate both
// records across the rebuild.
func TestForensicsStableAcrossConsecutiveFailures(t *testing.T) {
	const L, mb, f1, f2 = 4, 8, 4, 7
	plan := comm.NewFaultPlan().
		Generation(comm.FaultSpec{Rank: 1, After: f1 - 1}).
		// The rebuilt trainer replays step f1, so step f2 is its
		// (f2-f1+1)-th collective per rank.
		Generation(comm.FaultSpec{Rank: 2, After: f2 - f1}).
		// The shrunken trainer replays step f2; its second collective is
		// the Evaluate after it.
		Generation(comm.FaultSpec{Rank: 0, After: 1})
	tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 131, stream: 132, deadline: recoveryDeadline}.build(t)
	tr.SetFaultPlan(plan)

	for i := 1; i < f1; i++ {
		mustStep(t, tr, i)
	}
	if _, err := tr.Step(f1); err == nil {
		t.Fatal("first scripted failure did not surface")
	}
	if got := tr.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first failure DeadRanks() = %v, want [1]", got)
	}
	if got := tr.FailedStep(); got != f1 {
		t.Fatalf("first failure FailedStep() = %d, want %d", got, f1)
	}

	nt, err := tr.Recover("", madeBuilder)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for i := f1; i < f2; i++ {
		mustStep(t, nt, i)
	}
	if _, err := nt.Step(f2); err == nil {
		t.Fatal("second scripted failure (armed by the fault plan) did not surface")
	}

	// The first incarnation's forensics are untouched by the second failure.
	if got := tr.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first incarnation DeadRanks() clobbered: %v, want [1]", got)
	}
	if got := tr.FailedStep(); got != f1 {
		t.Fatalf("first incarnation FailedStep() clobbered: %d, want %d", got, f1)
	}
	// The second incarnation reports its own failure...
	if got := nt.DeadRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("second incarnation DeadRanks() = %v, want [2]", got)
	}
	if got := nt.FailedStep(); got != f2 {
		t.Fatalf("second incarnation FailedStep() = %d, want %d", got, f2)
	}
	// ...and the cumulative history carries both, in order.
	histRecs := nt.FailureHistory()
	if len(histRecs) != 2 ||
		histRecs[0].Step != f1 || len(histRecs[0].Dead) != 1 || histRecs[0].Dead[0] != 1 ||
		histRecs[1].Step != f2 || len(histRecs[1].Dead) != 1 || histRecs[1].Dead[0] != 2 {
		t.Fatalf("FailureHistory() = %+v, want [{%d [1]} {%d [2]}]", histRecs, f1, f2)
	}
	// A further rebuild still carries the full record.
	small, err := nt.Shrink()
	if err != nil {
		t.Fatalf("Shrink after second failure: %v", err)
	}
	if got := small.FailureHistory(); len(got) != 2 {
		t.Fatalf("shrunken trainer FailureHistory() lost records: %+v", got)
	}
	mustStep(t, small, f2) // the shrunken trainer is live

	// A rank death during Evaluate is a failure like any other: recorded
	// under the last iteration begun, not dropped from the post-mortem.
	if _, _, err := small.Evaluate(16); err == nil {
		t.Fatal("third scripted failure (during Evaluate) did not surface")
	}
	if got := small.DeadRanks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("third incarnation DeadRanks() = %v, want [0]", got)
	}
	if got := small.FailedStep(); got != f2 {
		t.Fatalf("failed Evaluate: FailedStep() = %d, want %d", got, f2)
	}
	histRecs = small.FailureHistory()
	if len(histRecs) != 3 || histRecs[2].Step != f2 || len(histRecs[2].Dead) != 1 || histRecs[2].Dead[0] != 0 {
		t.Fatalf("FailureHistory() after a failed Evaluate = %+v, want a third record {%d [0]}", histRecs, f2)
	}
}

// TestElasticGuards exercises every refusal path of Shrink and Grow.
func TestElasticGuards(t *testing.T) {
	// Shrink on a healthy trainer.
	tr := fixture{n: 6, h: 8, L: 2, mb: 4, init: 141, stream: 142}.build(t)
	mustTrain(t, tr, 2)
	if _, err := tr.Shrink(); err == nil {
		t.Fatal("Shrink on a healthy trainer succeeded")
	}
	// Grow refusals on the same healthy trainer: bad count, nil builder.
	if _, err := tr.Grow("", 0, madeBuilder); err == nil {
		t.Fatal("Grow with add=0 succeeded")
	}
	if _, err := tr.Grow("", 1, nil); err == nil {
		t.Fatal("Grow with a nil builder succeeded")
	}

	// Aborted without a dead rank (straggler past the deadline): nothing to
	// drop from the membership.
	tr2 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 143, stream: 144, deadline: recoveryDeadline}.build(t)
	tr2.InjectStraggler(1, time.Hour)
	if _, err := tr2.Train(2, nil); err == nil {
		t.Fatal("straggler past the deadline did not surface")
	}
	if _, err := tr2.Shrink(); err == nil {
		t.Fatal("Shrink with no dead rank succeeded")
	}
	// Grow on a condemned trainer.
	if _, err := tr2.Grow("", 1, madeBuilder); err == nil {
		t.Fatal("Grow on a condemned trainer succeeded")
	}

	// All ranks dead: no survivors to shrink to.
	tr3 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 145, stream: 146, deadline: recoveryDeadline}.build(t)
	tr3.InjectFailure(0, 1)
	tr3.InjectFailure(1, 1)
	mustTrain(t, tr3, 1)
	if _, err := tr3.Step(2); err == nil {
		t.Fatal("double death did not surface")
	}
	if _, err := tr3.Shrink(); err == nil {
		t.Fatal("Shrink with zero survivors succeeded")
	}
	if _, err := tr3.Recover("", madeBuilder); err == nil {
		t.Fatal("Recover with zero survivors succeeded")
	}

	// Condemned before any Step: no snapshot to rewind to.
	tr4 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 147, stream: 148, deadline: recoveryDeadline}.build(t)
	tr4.InjectFailure(0, 0)
	if _, _, err := tr4.Evaluate(16); err == nil {
		t.Fatal("evaluate with dead rank succeeded")
	}
	if _, err := tr4.Shrink(); err == nil {
		t.Fatal("Shrink without a step snapshot succeeded")
	}

	// Growth checkpoint into an unwritable directory fails cleanly and the
	// trainer remains usable.
	tr5 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 149, stream: 150}.build(t)
	got5 := mustTrain(t, tr5, 2)
	bogus := filepath.Join(t.TempDir(), "does", "not", "exist")
	if _, err := tr5.Grow(bogus, 1, madeBuilder); err == nil {
		t.Fatal("Grow into a nonexistent directory succeeded")
	}
	// Likewise a builder that fails on the second admitted rank, after the
	// first was built: the receiver then steps bit-identically to a trainer
	// that never tried (the supervisor's maybeGrow keeps running on it).
	failSecond := func(rank int, model Model) (Replica, error) {
		if rank == 3 {
			return Replica{}, errors.New("no capacity for rank 3")
		}
		return madeBuilder(rank, model)
	}
	if _, err := tr5.Grow("", 2, failSecond); err == nil {
		t.Fatal("Grow with a builder failing on the second admitted rank succeeded")
	}
	ref5 := fixture{n: 6, h: 8, L: 2, mb: 4, init: 149, stream: 150}.build(t)
	hist5 := mustTrain(t, ref5, 2)
	for i := 3; i <= 6; i++ {
		hist5 = append(hist5, mustStep(t, ref5, i))
		got5 = append(got5, mustStep(t, tr5, i))
	}
	assertIdenticalRun(t, hist5, got5, ref5, tr5)
}
