package dist

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// supervisionDeadline bounds every collective in these tests so a scripted
// death surfaces fast; the wall-clock assertions key off it. NewSupervisor
// keeps a trainer's deadline in place of its own 30 s default.
const supervisionDeadline = 250 * time.Millisecond

// scriptedBuilder consumes one outcome per call: true delegates to
// madeBuilder, false fails. It lets a test script exactly which recovery and
// growth attempts succeed.
func scriptedBuilder(t testing.TB, outcomes []bool) ReplicaBuilder {
	t.Helper()
	i := 0
	return func(rank int, model Model) (Replica, error) {
		if i >= len(outcomes) {
			t.Errorf("builder called %d times, scripted for %d", i+1, len(outcomes))
			return Replica{}, errors.New("supervise test: builder outcome script exhausted")
		}
		ok := outcomes[i]
		i++
		if !ok {
			return Replica{}, errors.New("supervise test: scripted builder failure")
		}
		return madeBuilder(rank, model)
	}
}

// TestSupervisedReplaceBitIdentical: one rank death, a working builder —
// the supervisor replaces and the full supervised run is bit-identical to
// the uninterrupted one.
func TestSupervisedReplaceBitIdentical(t *testing.T) {
	const L, mb, steps, failStep = 4, 8, 16, 7
	tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 201, stream: 202, deadline: supervisionDeadline}.build(t)
	tr.InjectFailure(2, failStep-1)
	sup, err := NewSupervisor(tr, Policy{Builder: madeBuilder, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := sup.Train(steps, nil)
	if err != nil {
		t.Fatalf("supervised Train: %v", err)
	}

	ref := fixture{n: 8, h: 10, L: L, mb: mb, init: 201, stream: 202, deadline: supervisionDeadline}.build(t)
	refHist, err := ref.Train(steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRun(t, refHist, hist, ref, sup.Trainer())
	st := sup.Stats()
	if st.Failures != 1 || st.Replacements != 1 || st.Shrinks != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 failure handled by 1 replacement", st)
	}
	if st.FinalCheckpoint == "" {
		t.Fatal("clean supervised run left no final checkpoint")
	}
	if _, err := nn.LoadFile(st.FinalCheckpoint); err != nil {
		t.Fatalf("final checkpoint does not load: %v", err)
	}
}

// TestSupervisedShrinkFallback: no builder, so the only fix is shrinking —
// and the continuation must match the manual dist-level Shrink run
// bit-for-bit.
func TestSupervisedShrinkFallback(t *testing.T) {
	const L, mb, steps, failStep = 4, 8, 16, 7
	tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 211, stream: 212, deadline: supervisionDeadline}.build(t)
	tr.InjectFailure(1, failStep-1)
	sup, err := NewSupervisor(tr, Policy{MinReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := sup.Train(steps, nil)
	if err != nil {
		t.Fatalf("supervised Train: %v", err)
	}

	// Reference: the same failure handled by hand at the dist layer.
	ref := fixture{n: 8, h: 10, L: L, mb: mb, init: 211, stream: 212, deadline: supervisionDeadline}.build(t)
	ref.InjectFailure(1, failStep-1)
	var refHist []core.IterStats
	for i := 1; i < failStep; i++ {
		s, err := ref.Step(i)
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		refHist = append(refHist, s)
	}
	if _, err := ref.Step(failStep); err == nil {
		t.Fatal("reference failure did not surface")
	}
	refSmall, err := ref.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	for i := failStep; i <= steps; i++ {
		s, err := refSmall.Step(i)
		if err != nil {
			t.Fatalf("reference post-shrink step %d: %v", i, err)
		}
		refHist = append(refHist, s)
	}
	assertIdenticalRun(t, refHist, hist, refSmall, sup.Trainer())
	st := sup.Stats()
	if st.Failures != 1 || st.Shrinks != 1 || st.Replacements != 0 {
		t.Fatalf("stats = %+v, want 1 failure handled by 1 shrink", st)
	}
	if got := sup.Trainer().EffectiveBatch(); got != (L-1)*mb {
		t.Fatalf("EffectiveBatch() = %d after supervised shrink, want %d", got, (L-1)*mb)
	}
}

// TestRetryBackoffCounters scripts two failed replacement attempts before a
// successful third and checks every retry/backoff counter against the fixed
// schedule, with the sleeps intercepted so the test stays fast and exact. It
// also pins the deadline rule: the supervisor keeps a caller's deadline, and
// a trainer nobody set one on keeps New's collectiveDeadline.
func TestRetryBackoffCounters(t *testing.T) {
	const L, mb, steps, failStep = 3, 4, 8, 4
	tr := fixture{n: 6, h: 8, L: L, mb: mb, init: 221, stream: 222, deadline: supervisionDeadline}.build(t)
	tr.InjectFailure(0, failStep-1)
	sup, err := NewSupervisor(tr, Policy{Builder: scriptedBuilder(t, []bool{false, false, true})})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.group.Deadline(); got != supervisionDeadline {
		t.Fatalf("NewSupervisor changed the caller's deadline to %v, want %v", got, supervisionDeadline)
	}
	bare := fixture{n: 6, h: 8, L: L, mb: mb, init: 221, stream: 222}.build(t)
	if _, err := NewSupervisor(bare, Policy{}); err != nil {
		t.Fatal(err)
	}
	if got := bare.group.Deadline(); got != collectiveDeadline {
		t.Fatalf("default trainer supervised with deadline %v, want %v", got, collectiveDeadline)
	}
	var slept []time.Duration
	sup.sleep = func(d time.Duration) { slept = append(slept, d) }

	hist, err := sup.Train(steps, nil)
	if err != nil {
		t.Fatalf("supervised Train: %v", err)
	}
	if len(hist) != steps {
		t.Fatalf("history has %d steps, want %d", len(hist), steps)
	}
	st := sup.Stats()
	if st.Failures != 1 || st.Retries != 2 || st.Replacements != 1 || st.Shrinks != 0 {
		t.Fatalf("stats = %+v, want failure resolved on the second retry", st)
	}
	if st.BackoffTotal != 300*time.Millisecond {
		t.Fatalf("BackoffTotal = %v, want 300ms", st.BackoffTotal)
	}
	if len(slept) != 2 || slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
		t.Fatalf("sleeps = %v, want [100ms 200ms] (exponential)", slept)
	}
	// The replacement rebuild is bit-identical to the uninterrupted run.
	ref := fixture{n: 6, h: 8, L: L, mb: mb, init: 221, stream: 222, deadline: supervisionDeadline}.build(t)
	refHist, err := ref.Train(steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRun(t, refHist, hist, ref, sup.Trainer())
}

// TestFloorAbortWritesFinalCheckpoint: a failure below the MinReplicas
// floor must abort with an error AND leave a loadable final checkpoint
// holding the last committed parameters.
func TestFloorAbortWritesFinalCheckpoint(t *testing.T) {
	const L, mb, steps, failStep = 2, 4, 10, 5
	dir := t.TempDir()
	tr := fixture{n: 6, h: 8, L: L, mb: mb, init: 231, stream: 232, deadline: supervisionDeadline}.build(t)
	tr.InjectFailure(1, failStep-1)
	sup, err := NewSupervisor(tr, Policy{MinReplicas: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := sup.Train(steps, nil)
	if err == nil {
		t.Fatal("floor abort did not surface an error")
	}
	if !errors.Is(err, comm.ErrPeerLost) {
		t.Fatalf("abort cause does not wrap the collective failure: %v", err)
	}
	if len(hist) != failStep-1 {
		t.Fatalf("history has %d steps, want the %d committed ones", len(hist), failStep-1)
	}
	st := sup.Stats()
	if st.Failures != 1 || st.FloorAborts != 1 || st.Shrinks != 0 || st.Replacements != 0 {
		t.Fatalf("stats = %+v, want a single floor abort", st)
	}
	want := filepath.Join(dir, "final-step0004.pvq")
	if st.FinalCheckpoint != want {
		t.Fatalf("FinalCheckpoint = %q, want %q", st.FinalCheckpoint, want)
	}
	wf, err := nn.LoadFile(st.FinalCheckpoint)
	if err != nil {
		t.Fatalf("final checkpoint does not load: %v", err)
	}
	// The artifact holds the survivor's last committed bytes.
	got := wf.(*nn.MADE).Params()
	wantP := sup.Trainer().Reps[0].Model.Params()
	for i := range wantP {
		if got[i] != wantP[i] {
			t.Fatalf("final checkpoint param %d = %v, want survivor's %v", i, got[i], wantP[i])
		}
	}
}

// TestAbortWithoutDeadRank: a group condemned without a rank death (a
// straggler past the deadline) has no membership fix; the supervisor must
// abort cleanly — with a final checkpoint — rather than loop.
func TestAbortWithoutDeadRank(t *testing.T) {
	const L, mb = 2, 4
	dir := t.TempDir()
	tr := fixture{n: 6, h: 8, L: L, mb: mb, init: 241, stream: 242, deadline: supervisionDeadline}.build(t)
	sup, err := NewSupervisor(tr, Policy{Builder: madeBuilder, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Train(2, nil); err != nil {
		t.Fatalf("healthy prefix: %v", err)
	}
	tr.InjectStraggler(1, time.Hour)
	start := time.Now()
	_, err = sup.Train(3, nil)
	if err == nil {
		t.Fatal("straggler-condemned run did not abort")
	}
	if elapsed := time.Since(start); elapsed > 20*supervisionDeadline {
		t.Fatalf("abort took %v, want bounded by the %v deadline", elapsed, supervisionDeadline)
	}
	st := sup.Stats()
	if st.Replacements != 0 || st.Shrinks != 0 {
		t.Fatalf("stats = %+v, want no membership change for a non-death abort", st)
	}
	if st.FinalCheckpoint == "" {
		t.Fatal("non-death abort left no final checkpoint")
	}
	if _, err := nn.LoadFile(st.FinalCheckpoint); err != nil {
		t.Fatalf("final checkpoint does not load: %v", err)
	}
}

// TestSupervisedFullSchedule is the acceptance run: a scripted multi-failure
// schedule exercising every policy arm in sequence — replace, shrink, grow,
// multi-rank death, floor abort — terminating with no hang, complete
// forensics, honest per-step batch reporting, and a loadable final
// checkpoint. Run under -race in CI; the goroutine count is checked on exit.
func TestSupervisedFullSchedule(t *testing.T) {
	const L, mb = 4, 4
	before := runtime.NumGoroutine()
	dir := t.TempDir()

	tr := fixture{n: 6, h: 8, L: L, mb: mb, init: 251, stream: 252, deadline: supervisionDeadline}.build(t)
	// Five incarnations, one fault generation each (a failed replacement is
	// 1 + maxRetries builder failures):
	//   gen0: rank 1 dies at step 3            -> builder ok      -> replace (L=4)
	//   gen1: rank 3 dies at step 6 (replay+3) -> builder fail x3 -> shrink  (L=3)
	//   gen2: fault-free; growAfter=10 clean   -> builder ok      -> grow    (L=4)
	//   gen3: ranks 0+2 die at step 17         -> builder fail x3 -> shrink  (L=2)
	//   gen4: rank 1 dies replaying step 17    -> builder fail x3 -> 1 < floor 2 -> abort
	plan := comm.NewFaultPlan().
		Generation(comm.FaultSpec{Rank: 1, After: 2}).
		Generation(comm.FaultSpec{Rank: 3, After: 3}).
		Generation().
		Generation(comm.FaultSpec{Rank: 0, After: 1}, comm.FaultSpec{Rank: 2, After: 1}).
		Generation(comm.FaultSpec{Rank: 1, After: 0})
	tr.SetFaultPlan(plan)

	script := []bool{true, false, false, false, true, false, false, false, false, false, false}
	sup, err := NewSupervisor(tr, Policy{
		MinReplicas:   2,
		Builder:       scriptedBuilder(t, script),
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.sleep = func(time.Duration) {}
	start := time.Now()
	hist, err := sup.Train(20, nil)
	if err == nil {
		t.Fatal("schedule must end in a floor abort")
	}
	if elapsed := time.Since(start); elapsed > 60*supervisionDeadline {
		t.Fatalf("schedule took %v, want bounded by the %v deadline", elapsed, supervisionDeadline)
	}
	if plan.Remaining() != 0 {
		t.Fatalf("fault plan has %d unconsumed generations", plan.Remaining())
	}

	// Sixteen steps committed; the batch column tells the membership story.
	wantBatch := []int{16, 16, 16, 16, 16, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 16}
	if len(hist) != len(wantBatch) {
		t.Fatalf("history has %d steps, want %d", len(hist), len(wantBatch))
	}
	for i, s := range hist {
		if s.Iter != i+1 || s.Batch != wantBatch[i] {
			t.Fatalf("hist[%d] = iter %d batch %d, want iter %d batch %d",
				i, s.Iter, s.Batch, i+1, wantBatch[i])
		}
	}

	st := sup.Stats()
	if st.Failures != 4 || st.Replacements != 1 || st.Shrinks != 2 ||
		st.Grows != 1 || st.GrowAttempts != 1 || st.FloorAborts != 1 || st.Retries != 3*maxRetries {
		t.Fatalf("stats = %+v, want 4 failures: replace, shrink, (grow), shrink, floor-abort", st)
	}

	// Complete forensics across every incarnation.
	recs := sup.Trainer().FailureHistory()
	wantRecs := []FailureRecord{
		{Step: 3, Dead: []int{1}},
		{Step: 6, Dead: []int{3}},
		{Step: 17, Dead: []int{0, 2}},
		{Step: 17, Dead: []int{1}},
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("FailureHistory() = %+v, want %+v", recs, wantRecs)
	}
	for i, w := range wantRecs {
		g := recs[i]
		if g.Step != w.Step || len(g.Dead) != len(w.Dead) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
		for j := range w.Dead {
			if g.Dead[j] != w.Dead[j] {
				t.Fatalf("record %d = %+v, want %+v", i, g, w)
			}
		}
	}

	// The final checkpoint is the last committed step's parameters.
	want := filepath.Join(dir, "final-step0016.pvq")
	if st.FinalCheckpoint != want {
		t.Fatalf("FinalCheckpoint = %q, want %q", st.FinalCheckpoint, want)
	}
	if _, err := nn.LoadFile(st.FinalCheckpoint); err != nil {
		t.Fatalf("final checkpoint does not load: %v", err)
	}

	// No goroutines leaked by five incarnations' worth of groups.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
