package dist

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// recordingSampler wraps a sampler and snapshots every batch it serves, so
// a serial training run can be replayed shard-by-shard on a distributed
// trainer.
type recordingSampler struct {
	inner sampler.Sampler
	rec   []*sampler.Batch
}

func (r *recordingSampler) Sample(b *sampler.Batch) {
	r.inner.Sample(b)
	clone := sampler.NewBatch(b.N, b.Sites)
	copy(clone.Bits, b.Bits)
	r.rec = append(r.rec, clone)
}

func (r *recordingSampler) Cost() sampler.Cost { return r.inner.Cost() }

// playbackSampler replays shard `rank` (rows [rank*mb, (rank+1)*mb)) of the
// pre-recorded global batches, one per Sample call. Replaying the exact
// serial batches is what makes the distributed-vs-serial comparison
// well-posed: both trainers see the same pooled samples every step.
type playbackSampler struct {
	rec  []*sampler.Batch
	rank int
	step int
}

func (p *playbackSampler) Sample(b *sampler.Batch) {
	g := p.rec[p.step]
	p.step++
	lo := p.rank * b.N * b.Sites
	copy(b.Bits, g.Bits[lo:lo+b.N*b.Sites])
}

func (p *playbackSampler) Cost() sampler.Cost { return sampler.Cost{} }

// runSerialSR trains a serial SR reference on TIM n=6 and returns the
// trainer's model, the per-iteration stats, and the recorded batches.
func runSerialSR(t *testing.T, tim hamiltonian.Hamiltonian, n, h, B, steps int) (*nn.MADE, []core.IterStats, []*sampler.Batch) {
	t.Helper()
	m := nn.NewMADE(n, h, rng.New(21))
	rec := &recordingSampler{inner: sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(22))}
	sr := tightSR()
	tr := core.New(tim, m, rec, optimizer.NewSGD(0.1), core.Config{
		BatchSize: B, Workers: 1, SR: sr})
	hist := tr.Train(steps, nil)
	return m, hist, rec.rec
}

// playback is the fixture sampler that has replica rank replay its shard
// of the recorded global batches.
func playback(rec []*sampler.Batch) func(int, Model, *rng.Rand) sampler.Sampler {
	return func(rank int, _ Model, _ *rng.Rand) sampler.Sampler { return &playbackSampler{rec: rec, rank: rank} }
}

// tightSR returns an SR preconditioner whose CG solves run to near machine
// precision. The default Tol (1e-6) is fine for training but too loose for
// the serial-vs-distributed comparison: serial and distributed solves would
// stop at different points inside the 1e-6 ball, swamping the <= 1e-10
// equivalence bound with solver slack instead of collective error.
func tightSR() *optimizer.SR {
	sr := optimizer.NewSR(1e-3)
	sr.Tol = 1e-13
	sr.MaxIter = 1000
	return sr
}

func maxParamDiff(a, b nn.Wavefunction) float64 {
	pa, pb := a.Params(), b.Params()
	var m float64
	for i := range pa {
		if d := math.Abs(pa[i] - pb[i]); d > m {
			m = d
		}
	}
	return m
}

// TestDistSRMatchesSerial is the core numerical-equivalence property of
// distributed stochastic reconfiguration: on L in {1,2,3} replicas holding
// shards of the SAME total batch B, the trained parameters match the serial
// core.Trainer SR run on the pooled batch to <= 1e-10 — and for L=1 the
// whole trajectory (parameters AND iteration statistics, including the CG
// solve counters) is bit-identical, because every floating-point operation
// is performed in the same order.
func TestDistSRMatchesSerial(t *testing.T) {
	const (
		n, h  = 6, 10
		B     = 24
		steps = 12
	)
	tim := hamiltonian.RandomTIM(n, rng.New(77))
	mRef, refHist, rec := runSerialSR(t, tim, n, h, B, steps)

	for _, L := range []int{1, 2, 3} {
		mb := B / L
		if mb*L != B {
			t.Fatalf("L=%d does not divide B=%d", L, B)
		}
		tr := fixture{ham: tim, n: n, h: h, mb: mb, workers: slices.Repeat([]int{1}, L), init: 21, smp: playback(rec), sgd: 0.1, sr: tightSR()}.build(t)
		hist := mustTrain(t, tr, steps)
		if err := tr.CheckConsistent(); err != nil {
			t.Fatalf("L=%d: replicas diverged: %v", L, err)
		}

		diff := maxParamDiff(tr.Reps[0].Model, mRef)
		if L == 1 {
			if diff != 0 {
				t.Fatalf("L=1: parameters not bit-identical to serial SR (max diff %g)", diff)
			}
			for i := range refHist {
				if hist[i] != refHist[i] {
					t.Fatalf("L=1 iter %d: stats %+v != serial %+v", i+1, hist[i], refHist[i])
				}
			}
		} else if diff > 1e-10 {
			t.Fatalf("L=%d: max parameter diff %g vs serial SR, want <= 1e-10", L, diff)
		}
		for i := range refHist {
			if math.Abs(hist[i].Energy-refHist[i].Energy) > 1e-10 {
				t.Fatalf("L=%d iter %d: energy %v vs serial %v", L, i+1, hist[i].Energy, refHist[i].Energy)
			}
			if hist[i].SRIters == 0 {
				t.Fatalf("L=%d iter %d: SR solve stats not reported", L, i+1)
			}
		}
		if L > 1 {
			if applies := tr.FisherApplies(); applies == 0 {
				t.Fatalf("L=%d: no distributed Fisher collectives counted", L)
			}
		}
	}
}

// TestDistSRComparisonHasTeeth injects a single flipped bit into one
// replica's replayed shard and demands the comparison FAIL: the final
// parameters must drift past the 1e-10 tolerance the equivalence test
// enforces. This proves the equivalence test would catch a real divergence
// (a wrong collective, a skipped sample, a mis-centered gradient).
func TestDistSRComparisonHasTeeth(t *testing.T) {
	const (
		n, h  = 6, 10
		B     = 24
		steps = 12
		L     = 2
	)
	tim := hamiltonian.RandomTIM(n, rng.New(77))
	mRef, _, rec := runSerialSR(t, tim, n, h, B, steps)

	// Corrupt one bit of replica 1's shard in the step-3 batch.
	corrupt := make([]*sampler.Batch, len(rec))
	for i, b := range rec {
		c := sampler.NewBatch(b.N, b.Sites)
		copy(c.Bits, b.Bits)
		corrupt[i] = c
	}
	row := corrupt[3].Row(B / L) // first row of replica 1's shard
	row[2] ^= 1

	tr := fixture{ham: tim, n: n, h: h, mb: B / L, workers: slices.Repeat([]int{1}, L), init: 21, smp: playback(corrupt), sgd: 0.1, sr: tightSR()}.build(t)
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

// TestTwoLevelSRRace exercises the full two-level path — 3 replicas x 4
// workers with distributed SR — for 20 steps. Its main value is under `go
// test -race`, where it sweeps the replica goroutines, the intra-replica
// parallel.For workers, and the per-CG-iteration collectives for data
// races.
func TestTwoLevelSRRace(t *testing.T) {
	const n, h, mb, steps = 8, 10, 12, 20
	tim := hamiltonian.RandomTIM(n, rng.New(31))
	tr := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{4, 4, 4}, init: 32, stream: 33, sgd: 0.1, sr: optimizer.NewSR(1e-3)}.build(t)
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
		t.Fatalf("two-level SR run broke bit-identity: %v", err)
	}
}

// TestWorkerCountInvariance pins the two-level scheme's core numerical
// property: worker partitioning only changes WHICH goroutine computes each
// independent row (local energies, O_k rows, Fisher sweep columns), never
// the reduction order — so a run with heterogeneous per-replica worker
// counts is bitwise identical to the same run with workers=1 everywhere,
// and the replicas stay bit-identical to each other despite their different
// worker counts.
func TestWorkerCountInvariance(t *testing.T) {
	const n, h, mb, steps = 7, 9, 8, 10
	tim := hamiltonian.RandomTIM(n, rng.New(41))

	serial := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{1, 1, 1}, init: 42, stream: 43, sgd: 0.1, sr: optimizer.NewSR(1e-3)}.build(t)
	serialHist := mustTrain(t, serial, steps)

	hetero := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{1, 2, 5}, init: 42, stream: 43, sgd: 0.1, sr: optimizer.NewSR(1e-3)}.build(t)
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

// TestDistSRConvergesTIM7 is the acceptance bar: distributed SR with L=4
// replicas x 4 workers must converge on TIM n=7 to within 15% of the exact
// ground energy in 50 steps, with replica parameters still bit-identical.
func TestDistSRConvergesTIM7(t *testing.T) {
	const n, h, mb, steps = 7, 14, 32, 50
	tim := hamiltonian.RandomTIM(n, rng.New(51))
	res, err := exact.GroundState(tim, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := fixture{ham: tim, n: n, h: h, mb: mb, workers: []int{4, 4, 4, 4}, init: 52, stream: 53, sgd: 0.1, sr: optimizer.NewSR(1e-3)}.build(t)
	mustTrain(t, tr, steps)
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("replicas diverged after %d SR steps: %v", steps, err)
	}
	mean, _ := mustEval(t, tr, 1024)
	gap := (mean - res.Energy) / math.Abs(res.Energy)
	if gap > 0.15 {
		t.Fatalf("distributed SR energy %v vs exact %v (gap %.3f > 0.15)", mean, res.Energy, gap)
	}
}

// TestSRValidation exercises the SR-specific constructor error paths.
func TestSRValidation(t *testing.T) {
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
	if _, err := New(tim, []Replica{mk(1, optimizer.NewSR(1e-3)), mk(2, nil)}, 4); err == nil {
		t.Fatal("mixed SR presence should error")
	}
	shared := optimizer.NewSR(1e-3)
	if _, err := New(tim, []Replica{mk(1, shared), mk(2, shared)}, 4); err == nil {
		t.Fatal("shared SR instance should error")
	} else if !strings.Contains(err.Error(), "private") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Sharing between two NON-ZERO replicas must be caught too (a pairwise
	// check, not just replica-0 comparisons): concurrent PreconditionOp on
	// one instance would race on the warm-start state.
	if _, err := New(tim, []Replica{mk(1, optimizer.NewSR(1e-3)), mk(2, shared), mk(3, shared)}, 4); err == nil {
		t.Fatal("SR instance shared between replicas 1 and 2 should error")
	} else if !strings.Contains(err.Error(), "replicas 1 and 2") {
		t.Fatalf("unexpected error: %v", err)
	}
	other := optimizer.NewSR(1e-2)
	if _, err := New(tim, []Replica{mk(1, optimizer.NewSR(1e-3)), mk(2, other)}, 4); err == nil {
		t.Fatal("mismatched SR configuration should error")
	}
	tr, err := New(tim, []Replica{mk(1, optimizer.NewSR(1e-3)), mk(2, optimizer.NewSR(1e-3))}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SREnabled() {
		t.Fatal("SREnabled should report true")
	}
}
