package dist

// Record/playback equivalence harness for the PIPELINED distributed SR
// path, mirroring sr_test.go: a serial training run records its batches,
// distributed trainers replay shards of them, and the trained parameters
// are compared — against serial classic SR at the 1e-10 level (Gropp's
// variant is the same Krylov process), and bitwise against serial
// *pipelined* SR at L=1 (identical floating-point order by construction).

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// tightPipelinedSR is tightSR with the pipelined solver selected.
func tightPipelinedSR() *optimizer.SR {
	sr := tightSR()
	sr.Solver = optimizer.SolverPipelined
	return sr
}

// runSerialSRRef trains a serial SR reference (solver selectable) on a TIM
// instance, recording every batch it draws.
func runSerialSRRef(tb testing.TB, tim hamiltonian.Hamiltonian, n, h, B, steps int, sr *optimizer.SR) (*nn.MADE, []core.IterStats, []*sampler.Batch) {
	tb.Helper()
	m := nn.NewMADE(n, h, rng.New(21))
	rec := &recordingSampler{inner: sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(22))}
	tr := core.New(tim, m, rec, optimizer.NewSGD(0.1), core.Config{
		BatchSize: B, Workers: 1, SR: sr})
	hist := tr.Train(steps, nil)
	return m, hist, rec.rec
}

// replaySerialSR replays previously recorded batches through a fresh serial
// trainer (rank 0 of a 1-shard split is the whole batch), so two serial
// solvers can be compared on identical data.
func replaySerialSR(tb testing.TB, tim hamiltonian.Hamiltonian, rec []*sampler.Batch, n, h, B int, sr *optimizer.SR) (*nn.MADE, []core.IterStats) {
	tb.Helper()
	m := nn.NewMADE(n, h, rng.New(21))
	tr := core.New(tim, m, &playbackSampler{rec: rec, rank: 0}, optimizer.NewSGD(0.1), core.Config{
		BatchSize: B, Workers: 1, SR: sr})
	hist := tr.Train(len(rec), nil)
	return m, hist
}

// buildPipelinedSRPlayback assembles an L-replica distributed trainer with
// the pipelined solver whose replicas replay shards of recorded batches.
func buildPipelinedSRPlayback(tb testing.TB, tim hamiltonian.Hamiltonian, rec []*sampler.Batch, n, h, L, mb int) *Trainer {
	tb.Helper()
	reps := make([]Replica, L)
	for r := 0; r < L; r++ {
		m := nn.NewMADE(n, h, rng.New(21))
		reps[r] = Replica{
			Model:   m,
			Smp:     &playbackSampler{rec: rec, rank: r},
			Opt:     optimizer.NewSGD(0.1),
			SR:      tightPipelinedSR(),
			Workers: 1,
		}
	}
	tr, err := New(tim, reps, mb)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestPipelinedDistSRMatchesSerial is the numerical-equivalence property of
// the pipelined distributed Fisher solve: on L in {1,2,3} replicas holding
// shards of the SAME total batch, the trained parameters match serial
// classic-CG SR on the pooled batch to <= 1e-10 — and for L=1 the whole
// trajectory is bit-identical to serial PIPELINED SR, because the
// distributed solver performs the identical floating-point operations with
// only the (no-op at L=1) collective spliced in.
func TestPipelinedDistSRMatchesSerial(t *testing.T) {
	const (
		n, h  = 6, 10
		B     = 24
		steps = 12
	)
	tim := hamiltonian.RandomTIM(n, rng.New(77))
	mClassic, classicHist, rec := runSerialSRRef(t, tim, n, h, B, steps, tightSR())
	mPipe, pipeHist := replaySerialSR(t, tim, rec, n, h, B, tightPipelinedSR())

	// The two serial solvers must already agree — otherwise the 1e-10
	// comparisons below test nothing about the distribution.
	if diff := maxParamDiff(mClassic, mPipe); diff > 1e-10 {
		t.Fatalf("serial pipelined SR drifted %g from serial classic SR", diff)
	}

	for _, L := range []int{1, 2, 3} {
		mb := B / L
		if mb*L != B {
			t.Fatalf("L=%d does not divide B=%d", L, B)
		}
		tr := buildPipelinedSRPlayback(t, tim, rec, n, h, L, mb)
		hist := mustTrain(t, tr, steps)
		if err := tr.CheckConsistent(); err != nil {
			t.Fatalf("L=%d: replicas diverged: %v", L, err)
		}

		if L == 1 {
			if diff := maxParamDiff(tr.Reps[0].Model, mPipe); diff != 0 {
				t.Fatalf("L=1: parameters not bit-identical to serial pipelined SR (max diff %g)", diff)
			}
			for i := range pipeHist {
				if hist[i] != pipeHist[i] {
					t.Fatalf("L=1 iter %d: stats %+v != serial pipelined %+v", i+1, hist[i], pipeHist[i])
				}
			}
		}
		if diff := maxParamDiff(tr.Reps[0].Model, mClassic); diff > 1e-10 {
			t.Fatalf("L=%d: max parameter diff %g vs serial classic SR, want <= 1e-10", L, diff)
		}
		for i := range classicHist {
			if math.Abs(hist[i].Energy-classicHist[i].Energy) > 1e-10 {
				t.Fatalf("L=%d iter %d: energy %v vs serial %v", L, i+1, hist[i].Energy, classicHist[i].Energy)
			}
			if hist[i].SRIters == 0 {
				t.Fatalf("L=%d iter %d: SR solve stats not reported", L, i+1)
			}
		}
		// Every Fisher collective of the solve must be non-blocking: per
		// step only the energy and gradient reductions block — on EVERY rank,
		// so the rank-summed count is exactly L x 2 x steps.
		sync, async := tr.Collectives()
		if want := int64(L * 2 * steps); sync != want {
			t.Fatalf("L=%d: %d blocking collectives, want %d (pipelined solve must not block)", L, sync, want)
		}
		if err := tr.CollectivesBalanced(); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		if L > 1 && async == 0 {
			t.Fatalf("L=%d: no non-blocking collectives counted", L)
		}
	}
}

// TestPipelinedDistSRComparisonHasTeeth corrupts one bit of one replica's
// replayed shard and demands the equivalence comparison FAIL, proving the
// 1e-10 bound would catch a real divergence in the pipelined collective
// schedule (a dropped Wait, a stale handle, a mis-packed section).
func TestPipelinedDistSRComparisonHasTeeth(t *testing.T) {
	const (
		n, h  = 6, 10
		B     = 24
		steps = 12
		L     = 2
	)
	tim := hamiltonian.RandomTIM(n, rng.New(77))
	mRef, _, rec := runSerialSRRef(t, tim, n, h, B, steps, tightSR())

	corrupt := make([]*sampler.Batch, len(rec))
	for i, b := range rec {
		c := sampler.NewBatch(b.N, b.Sites)
		copy(c.Bits, b.Bits)
		corrupt[i] = c
	}
	row := corrupt[3].Row(B / L) // first row of replica 1's shard
	row[2] ^= 1

	tr := buildPipelinedSRPlayback(t, tim, corrupt, n, h, L, B/L)
	mustTrain(t, tr, steps)
	if err := tr.CheckConsistent(); err != nil {
		// Different data must not break replica consistency — it enters
		// through the collectives, identically on every rank.
		t.Fatalf("corrupted data broke replica consistency: %v", err)
	}
	if diff := maxParamDiff(tr.Reps[0].Model, mRef); diff <= 1e-10 {
		t.Fatalf("injected divergence not detected: max parameter diff %g <= 1e-10", diff)
	}
}

// buildPipelinedSRTrainer assembles an L-replica pipelined-SR trainer with
// live autoregressive samplers and per-replica worker counts.
func buildPipelinedSRTrainer(tb testing.TB, tim hamiltonian.Hamiltonian, n, h, mb int, workers []int, initSeed, streamSeed uint64) *Trainer {
	tb.Helper()
	L := len(workers)
	streams := rng.New(streamSeed).SplitN(L)
	reps := make([]Replica, L)
	for r := 0; r < L; r++ {
		m := nn.NewMADE(n, h, rng.New(initSeed))
		sr := optimizer.NewSR(1e-3)
		sr.Solver = optimizer.SolverPipelined
		reps[r] = Replica{
			Model:   m,
			Smp:     sampler.NewAutoBatched(m.NumSites(), m, 1, streams[r]),
			Opt:     optimizer.NewSGD(0.1),
			SR:      sr,
			Workers: workers[r],
		}
	}
	tr, err := New(tim, reps, mb)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestTwoLevelPipelinedSRRace exercises the full two-level path — 3
// replicas x 4 workers with the pipelined solver — for 20 steps. Its main
// value is under `go test -race`, where it sweeps the replica goroutines,
// the intra-replica parallel.For workers, AND the background goroutines the
// non-blocking collectives run on, all concurrently.
func TestTwoLevelPipelinedSRRace(t *testing.T) {
	const n, h, mb, steps = 8, 10, 12, 20
	tim := hamiltonian.RandomTIM(n, rng.New(31))
	tr := buildPipelinedSRTrainer(t, tim, n, h, mb, []int{4, 4, 4}, 32, 33)
	hist := mustTrain(t, tr, steps)
	if len(hist) != steps {
		t.Fatalf("history length %d", len(hist))
	}
	for _, s := range hist {
		if math.IsNaN(s.Energy) || math.IsNaN(s.Std) {
			t.Fatalf("NaN statistics at iteration %d", s.Iter)
		}
	}
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("two-level pipelined SR run broke bit-identity: %v", err)
	}
}

// TestPipelinedWorkerCountInvariance pins worker-count bitwise invariance
// on the pipelined path: heterogeneous per-replica worker counts {1,2,5}
// must produce bit-identical trained parameters to workers=1 everywhere —
// the local sweep partitioning and the overlap window change WHO computes,
// never the reduction order.
func TestPipelinedWorkerCountInvariance(t *testing.T) {
	const n, h, mb, steps = 7, 9, 8, 10
	tim := hamiltonian.RandomTIM(n, rng.New(41))

	serial := buildPipelinedSRTrainer(t, tim, n, h, mb, []int{1, 1, 1}, 42, 43)
	serialHist := mustTrain(t, serial, steps)

	hetero := buildPipelinedSRTrainer(t, tim, n, h, mb, []int{1, 2, 5}, 42, 43)
	heteroHist := mustTrain(t, hetero, steps)

	if err := hetero.CheckConsistent(); err != nil {
		t.Fatalf("heterogeneous workers broke replica bit-identity: %v", err)
	}
	if diff := maxParamDiff(serial.Reps[0].Model, hetero.Reps[0].Model); diff != 0 {
		t.Fatalf("worker count changed the trained parameters (max diff %g)", diff)
	}
	for i := range serialHist {
		if serialHist[i] != heteroHist[i] {
			t.Fatalf("iter %d: stats %+v != workers=1 stats %+v", i+1, heteroHist[i], serialHist[i])
		}
	}
}

// TestPipelinedSolverValidation checks that mixing solver kinds across
// replicas is rejected — the two solvers issue different collective
// schedules, so a mixed group would deadlock or corrupt the ring.
func TestPipelinedSolverValidation(t *testing.T) {
	const n, h = 6, 8
	tim := hamiltonian.RandomTIM(n, rng.New(1))
	mk := func(seed uint64, sr *optimizer.SR) Replica {
		m := nn.NewMADE(n, h, rng.New(3))
		return Replica{
			Model: m,
			Smp:   sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(seed)),
			Opt:   optimizer.NewSGD(0.1),
			SR:    sr,
		}
	}
	pipe := optimizer.NewSR(1e-3)
	pipe.Solver = optimizer.SolverPipelined
	if _, err := New(tim, []Replica{mk(1, optimizer.NewSR(1e-3)), mk(2, pipe)}, 4); err == nil {
		t.Fatal("mixed solver kinds should error")
	}
	tr, err := New(tim, []Replica{mk(1, pipe.Clone()), mk(2, pipe.Clone())}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SREnabled() {
		t.Fatal("SREnabled should report true")
	}
}

// auditPipelinedTrajectoryTIM7 runs the acceptance trajectory: 50 SR steps
// on TIM n=7, serial classic SR recorded, L=2 pipelined playback replayed —
// final parameters and every per-step energy within 1e-10.
func auditPipelinedTrajectoryTIM7(tb testing.TB) {
	const (
		n, h  = 7, 10
		B     = 24
		steps = 50
		L     = 2
	)
	tim := hamiltonian.RandomTIM(n, rng.New(51))
	mRef, refHist, rec := runSerialSRRef(tb, tim, n, h, B, steps, tightSR())
	tr := buildPipelinedSRPlayback(tb, tim, rec, n, h, L, B/L)
	hist := mustTrain(tb, tr, steps)
	if err := tr.CheckConsistent(); err != nil {
		tb.Fatalf("replicas diverged: %v", err)
	}
	if diff := maxParamDiff(tr.Reps[0].Model, mRef); diff > 1e-10 {
		tb.Fatalf("L=2 pipelined SR drifted %g from serial SR after %d steps (want <= 1e-10)", diff, steps)
	}
	for i := range refHist {
		if math.Abs(hist[i].Energy-refHist[i].Energy) > 1e-10 {
			tb.Fatalf("iter %d: energy %v vs serial %v", i+1, hist[i].Energy, refHist[i].Energy)
		}
	}
}

// TestPipelinedSRTrajectoryTIM7 is the acceptance bar as a plain test.
func TestPipelinedSRTrajectoryTIM7(t *testing.T) {
	auditPipelinedTrajectoryTIM7(t)
}

// TestPipelinedSRConvergesTIM7 mirrors the classic acceptance run with the
// pipelined solver end to end on live samplers: L=4 replicas x 4 workers,
// 50 steps, within 15% of the exact ground energy, replicas bit-identical.
func TestPipelinedSRConvergesTIM7(t *testing.T) {
	const n, h, mb, steps = 7, 14, 32, 50
	tim := hamiltonian.RandomTIM(n, rng.New(51))
	res, err := exact.GroundState(tim, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := buildPipelinedSRTrainer(t, tim, n, h, mb, []int{4, 4, 4, 4}, 52, 53)
	mustTrain(t, tr, steps)
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("replicas diverged after %d pipelined SR steps: %v", steps, err)
	}
	mean, _ := mustEval(t, tr, 1024)
	gap := (mean - res.Energy) / math.Abs(res.Energy)
	if gap > 0.15 {
		t.Fatalf("pipelined SR energy %v vs exact %v (gap %.3f > 0.15)", mean, res.Energy, gap)
	}
}

// BenchmarkPipelinedSR audits the collective schedule of the pipelined
// distributed Fisher solve, then times its SR step. The audits assert:
//
//  1. the 50-step TIM n=7 trajectory equivalence (L=2 pipelined vs serial
//     SR, <= 1e-10);
//  2. the blocking-collective count: per SR step the pipelined path blocks
//     on exactly the 2 pre-solve reductions — ZERO per CG solve, the
//     analytic pipelined value, vs classic's one-per-iteration — while
//     every per-iteration Fisher reduction is initiated non-blocking
//     (async count = applies = sum over steps of iters+2);
//  3. ring traffic within 2x of the classic solver on the same run length
//     (the overlap costs one extra operator application per solve, nothing
//     more).
func BenchmarkPipelinedSR(b *testing.B) {
	auditPipelinedTrajectoryTIM7(b)

	const n, h, L, mb, steps = 12, 16, 4, 8, 3
	tim := hamiltonian.RandomTIM(n, rng.New(61))
	classic := buildSRTrainer(b, tim, n, h, mb, []int{2, 2, 2, 2}, 62, 63)
	classicHist := mustTrain(b, classic, steps)
	syncC, asyncC := classic.Collectives()
	var itersC int64
	for _, s := range classicHist {
		itersC += int64(s.SRIters)
	}
	if asyncC != 0 {
		b.Fatalf("classic solver issued %d non-blocking collectives", asyncC)
	}
	if want := L * (2*steps + classic.FisherApplies()); syncC != want {
		b.Fatalf("classic blocking collectives %d, want %d (L x (2 pre-solve + 1 per CG apply))", syncC, want)
	}
	if want := itersC + steps; classic.FisherApplies() != want {
		b.Fatalf("classic Fisher applies %d, want %d (one per iteration + the initial residual)", classic.FisherApplies(), want)
	}

	pipe := buildPipelinedSRTrainer(b, tim, n, h, mb, []int{2, 2, 2, 2}, 62, 63)
	pipeHist := mustTrain(b, pipe, steps)
	syncP, asyncP := pipe.Collectives()
	var itersP int64
	for _, s := range pipeHist {
		itersP += int64(s.SRIters)
	}
	if syncP != L*2*steps {
		b.Fatalf("pipelined blocking collectives %d, want %d: the solve itself must block on none", syncP, L*2*steps)
	}
	if want := itersP + 2*steps; asyncP != L*want || pipe.FisherApplies() != want {
		b.Fatalf("pipelined async collectives %d (applies %d), want %d x L (iters+2 per solve)",
			asyncP, pipe.FisherApplies(), want)
	}
	bytesC, _ := classic.Traffic()
	bytesP, _ := pipe.Traffic()
	if bytesP > 2*bytesC {
		b.Fatalf("pipelined traffic %d bytes exceeds 2x classic %d", bytesP, bytesC)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Step(i); err != nil {
			b.Fatal(err)
		}
	}
}
