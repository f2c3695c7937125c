package dist

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// fixture is the one trainer builder of this package's tests: L replicas
// of one model family, every one built from the init seed, each drawing
// from its own stream of the stream seed — the construction the facade and
// the experiment harness use. A zero field takes the common default.
type fixture struct {
	ham          hamiltonian.Hamiltonian // nil: hamiltonian.RandomTIM(n, rng.New(77))
	n, h, L, mb  int
	workers      []int // replica r's Workers; nil: 0 for each of L
	init, stream uint64
	model        func(r *rng.Rand) Model                                   // nil: nn.NewMADE(n, h, r)
	smp          func(rank int, m Model, stream *rng.Rand) sampler.Sampler // nil: ancestral(1)
	sgd          float64                                                   // > 0: SGD at this rate; 0: Adam(0.01)
	sr           *optimizer.SR                                             // cloned per replica; nil: no SR
	deadline     time.Duration                                             // > 0: the collective deadline
}

// ancestral is the fixture sampler that draws each replica's rows with the
// batched ancestral sampler at the given worker count.
func ancestral(workers int) func(int, Model, *rng.Rand) sampler.Sampler {
	return func(_ int, m Model, stream *rng.Rand) sampler.Sampler {
		return sampler.NewAutoBatched(m.NumSites(), m.(nn.BatchAncestralBuilder), workers, stream)
	}
}

func (f fixture) build(t testing.TB) *Trainer {
	t.Helper()
	if f.ham == nil {
		f.ham = hamiltonian.RandomTIM(f.n, rng.New(77))
	}
	if f.workers == nil {
		f.workers = make([]int, f.L)
	}
	if f.model == nil {
		f.model = func(r *rng.Rand) Model { return nn.NewMADE(f.n, f.h, r) }
	}
	if f.smp == nil {
		f.smp = ancestral(1)
	}
	streams := rng.New(f.stream).SplitN(len(f.workers))
	reps := make([]Replica, len(f.workers))
	for r, w := range f.workers {
		m := f.model(rng.New(f.init))
		reps[r] = Replica{Model: m, Smp: f.smp(r, m, streams[r]), Opt: optimizer.NewAdam(0.01), Workers: w}
		if f.sgd > 0 {
			reps[r].Opt = optimizer.NewSGD(f.sgd)
		}
		if f.sr != nil {
			reps[r].SR = f.sr.Clone()
		}
	}
	tr, err := New(f.ham, reps, f.mb)
	if err != nil {
		t.Fatal(err)
	}
	if f.deadline > 0 {
		tr.SetCollectiveDeadline(f.deadline)
	}
	return tr
}

// mustStep, mustTrain and mustEval run the fault-free paths, failing the
// test on any collective error — healthy trainers must never see one.
func mustStep(t testing.TB, tr *Trainer, iter int) core.IterStats {
	t.Helper()
	s, err := tr.Step(iter)
	if err != nil {
		t.Fatalf("Step(%d): %v", iter, err)
	}
	return s
}

func mustTrain(t testing.TB, tr *Trainer, iters int) []core.IterStats {
	t.Helper()
	hist, err := tr.Train(iters, nil)
	if err != nil {
		t.Fatalf("Train(%d): %v", iters, err)
	}
	return hist
}

func mustEval(t testing.TB, tr *Trainer, batch int) (mean, std float64) {
	t.Helper()
	mean, std, err := tr.Evaluate(batch)
	if err != nil {
		t.Fatalf("Evaluate(%d): %v", batch, err)
	}
	return mean, std
}

// TestReplicaBitIdentity pins the package's core invariant: after every one
// of 50 synchronous steps with L=4 replicas, all parameter vectors are
// bit-identical (exact ==, no tolerance).
func TestReplicaBitIdentity(t *testing.T) {
	const L = 4
	tr := fixture{n: 10, h: 14, L: L, mb: 8, init: 3, stream: 4}.build(t)
	for step := 1; step <= 50; step++ {
		mustStep(t, tr, step)
		ref := tr.Reps[0].Model.Params()
		for r := 1; r < L; r++ {
			p := tr.Reps[r].Model.Params()
			for i := range ref {
				if p[i] != ref[i] {
					t.Fatalf("step %d: replica %d param %d = %v, replica 0 has %v",
						step, r, i, p[i], ref[i])
				}
			}
		}
		if err := tr.CheckConsistent(); err != nil {
			t.Fatalf("step %d: CheckConsistent: %v", step, err)
		}
	}
}

// TestDivergenceIsCaught tests the test: an injected single-ULP-scale
// divergence in one replica must be flagged by CheckConsistent, proving the
// bit-identity check has teeth.
func TestDivergenceIsCaught(t *testing.T) {
	tr := fixture{n: 8, h: 10, L: 4, mb: 8, init: 5, stream: 6}.build(t)
	tr.Step(1)
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("consistent trainer flagged: %v", err)
	}
	p := tr.Reps[2].Model.Params()
	old := p[3]
	p[3] = math.Nextafter(p[3], math.Inf(1)) // smallest possible divergence
	err := tr.CheckConsistent()
	if err == nil {
		t.Fatal("one-ULP divergence in replica 2 not caught")
	}
	if !strings.Contains(err.Error(), "replica 2") {
		t.Fatalf("error should name the diverged replica: %v", err)
	}
	p[3] = old
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("restored trainer still flagged: %v", err)
	}
}

// TestSingleDeviceEquivalence: a dist trainer with L=1 is the same
// algorithm as core.Trainer — same model init, same rng stream, same batch
// size must give the same energy trajectory.
func TestSingleDeviceEquivalence(t *testing.T) {
	const (
		n, h     = 8, 12
		bs       = 64
		iters    = 30
		initSeed = 9
		smpSeed  = 10
	)
	tim := hamiltonian.RandomTIM(n, rng.New(77))

	mRef := nn.NewMADE(n, h, rng.New(initSeed))
	ref := core.New(tim, mRef,
		sampler.NewAutoBatched(mRef.NumSites(), mRef, 1, rng.New(smpSeed)),
		optimizer.NewAdam(0.01), core.Config{BatchSize: bs, Workers: 1})
	want := ref.Train(iters, nil)

	mDist := nn.NewMADE(n, h, rng.New(initSeed))
	tr, err := New(tim, []Replica{{
		Model: mDist,
		Smp:   sampler.NewAutoBatched(mDist.NumSites(), mDist, 1, rng.New(smpSeed)),
		Opt:   optimizer.NewAdam(0.01),
	}}, bs)
	if err != nil {
		t.Fatal(err)
	}
	got := mustTrain(t, tr, iters)

	if len(got) != len(want) {
		t.Fatalf("trajectory length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Iter != want[i].Iter {
			t.Fatalf("iter %d: Iter=%d, want %d", i, got[i].Iter, want[i].Iter)
		}
		if got[i].Energy != want[i].Energy || got[i].Std != want[i].Std {
			t.Fatalf("iter %d: dist (E=%v, s=%v) != core (E=%v, s=%v)",
				i, got[i].Energy, got[i].Std, want[i].Energy, want[i].Std)
		}
	}
	for i, p := range mDist.Params() {
		if p != mRef.Params()[i] {
			t.Fatalf("final param %d: dist %v != core %v", i, p, mRef.Params()[i])
		}
	}
	wm, ws, wb, wrow := ref.EvaluateBest(128)
	gm, gs, gb, grow, err := tr.EvaluateBest(128)
	if err != nil {
		t.Fatal(err)
	}
	if gm != wm || gs != ws || gb != wb || !slices.Equal(grow, wrow) {
		t.Fatalf("EvaluateBest: dist (%v, %v, %v, %v) != core (%v, %v, %v, %v)", gm, gs, gb, grow, wm, ws, wb, wrow)
	}
}

// TestTrainImprovesEnergy: a short distributed run on a small TIM must
// lower the energy from its initial value.
func TestTrainImprovesEnergy(t *testing.T) {
	tr := fixture{n: 8, h: 12, L: 4, mb: 16, init: 11, stream: 12}.build(t)
	hist := mustTrain(t, tr, 80)
	if len(hist) != 80 {
		t.Fatalf("history length %d", len(hist))
	}
	first, last := hist[0].Energy, hist[len(hist)-1].Energy
	if !(last < first) {
		t.Fatalf("energy did not improve: %v -> %v", first, last)
	}
	for i, s := range hist {
		if s.Iter != i+1 {
			t.Fatalf("hist[%d].Iter = %d, want %d", i, s.Iter, i+1)
		}
		if math.IsNaN(s.Energy) || math.IsNaN(s.Std) {
			t.Fatalf("NaN statistics at iteration %d", i+1)
		}
	}
}

// TestEvaluate checks the collective evaluation path, including batches
// smaller than the replica count (some replicas contribute zero samples but
// must still join the collective).
func TestEvaluate(t *testing.T) {
	tr := fixture{n: 8, h: 12, L: 4, mb: 8, init: 13, stream: 14}.build(t)
	mustTrain(t, tr, 30)
	mean, std := mustEval(t, tr, 256)
	if math.IsNaN(mean) || math.IsNaN(std) || std < 0 {
		t.Fatalf("bad evaluation: mean=%v std=%v", mean, std)
	}
	// TIM ground energy is negative; a trained model should be below zero.
	if mean >= 0 {
		t.Fatalf("trained TIM energy %v should be negative", mean)
	}
	// The best row over the 4 ranks' shares evaluates, through the scalar
	// reference, to the best energy, and no sample lies below it.
	bm, _, best, row, err := tr.EvaluateBest(256)
	if err != nil {
		t.Fatal(err)
	}
	b := sampler.NewBatch(1, tr.H.N())
	copy(b.Row(0), row)
	ref := make([]float64, 1)
	core.LocalEnergies(tr.H, tr.Reps[0].Model, b, 1, ref)
	if ref[0] != best || best > bm {
		t.Fatalf("EvaluateBest: row evaluates to %v, best %v, mean %v", ref[0], best, bm)
	}
	m2, s2 := mustEval(t, tr, 3) // fewer samples than the 4 replicas
	if math.IsNaN(m2) || math.IsNaN(s2) {
		t.Fatalf("tiny batch evaluation: mean=%v std=%v", m2, s2)
	}
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("Evaluate must not perturb parameters: %v", err)
	}
}

// TestNewValidation exercises every constructor error path.
func TestNewValidation(t *testing.T) {
	n := 6
	tim := hamiltonian.RandomTIM(n, rng.New(1))
	mk := func(h int, seed uint64) Replica {
		m := nn.NewMADE(n, h, rng.New(seed))
		return Replica{
			Model: m,
			Smp:   sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(seed+100)),
			Opt:   optimizer.NewAdam(0.01),
		}
	}
	if _, err := New(tim, nil, 4); err == nil {
		t.Fatal("empty replica list should error")
	}
	if _, err := New(tim, []Replica{mk(8, 1)}, 0); err == nil {
		t.Fatal("miniBatch=0 should error")
	}
	if _, err := New(tim, []Replica{mk(8, 1), {}}, 4); err == nil {
		t.Fatal("nil replica fields should error")
	}
	if _, err := New(tim, []Replica{mk(8, 1), mk(10, 1)}, 4); err == nil {
		t.Fatal("mismatched parameter shapes should error")
	}
	if _, err := New(tim, []Replica{mk(8, 1), mk(8, 2)}, 4); err == nil {
		t.Fatal("mismatched initial parameters should error")
	}
	other := nn.NewMADE(n+1, 8, rng.New(1))
	if _, err := New(tim, []Replica{{
		Model: other,
		Smp:   sampler.NewAutoBatched(other.NumSites(), other, 1, rng.New(2)),
		Opt:   optimizer.NewAdam(0.01),
	}}, 4); err == nil {
		t.Fatal("site-count mismatch with Hamiltonian should error")
	}
	tr, err := New(tim, []Replica{mk(8, 1), mk(8, 1)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Devices() != 2 || tr.MiniBatch() != 4 || tr.EffectiveBatch() != 8 {
		t.Fatalf("accessors: L=%d mb=%d eff=%d", tr.Devices(), tr.MiniBatch(), tr.EffectiveBatch())
	}
}

// TestTrafficAccounting: the per-step collective payload of the ring
// all-reduce is 2(L-1)/L of the (d+2)-vector per replica.
func TestTrafficAccounting(t *testing.T) {
	const L, steps = 4, 10
	tr := fixture{n: 8, h: 12, L: L, mb: 8, init: 15, stream: 16}.build(t)
	mustTrain(t, tr, steps)
	bytes, msgs := tr.Traffic()
	if msgs != int64(L*2*(L-1)*steps) {
		t.Fatalf("messages = %d, want %d", msgs, L*2*(L-1)*steps)
	}
	payload := int64(tr.Reps[0].Model.NumParams() + 2)
	want := int64(steps) * 2 * int64(L-1) * payload * 8 // all L replicas combined
	if bytes < want-int64(steps*L*64) || bytes > want+int64(steps*L*64) {
		t.Fatalf("bytes = %d, want ~%d", bytes, want)
	}
	if tr.Timings().Total() <= 0 {
		t.Fatal("timings not accumulated")
	}
}

// TestRankTimings: every rank reports its own six phases — each has spent
// time in Grad after a step — Timings() is element 0, and the trainers a
// shrink and a grow return report exactly their live ranks.
func TestRankTimings(t *testing.T) {
	const L, mb = 3, 8
	check := func(tr *Trainer, what string) {
		t.Helper()
		rt := tr.RankTimings()
		if len(rt) != tr.Devices() {
			t.Fatalf("%s: RankTimings has %d entries for %d ranks", what, len(rt), tr.Devices())
		}
		for r, ph := range rt {
			if ph.Grad <= 0 || ph.Sample <= 0 || ph.Total() < ph.Grad+ph.Sample {
				t.Fatalf("%s: rank %d timings %+v after a step", what, r, ph)
			}
		}
		if rt[0] != tr.Timings() {
			t.Fatalf("%s: Timings() %+v is not RankTimings()[0] %+v", what, tr.Timings(), rt[0])
		}
	}
	tr := fixture{n: 8, h: 10, L: L, mb: mb, init: 131, stream: 132}.build(t)
	mustStep(t, tr, 1)
	check(tr, "L=3")

	grown, err := tr.Grow(t.TempDir(), 1, func(rank int, model Model) (Replica, error) {
		m := model.(*nn.MADE)
		return Replica{Model: m, Smp: sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(7)), Opt: optimizer.NewSGD(1)}, nil
	})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	mustStep(t, grown, 2)
	check(grown, "grown to L=4")

	grown.SetCollectiveDeadline(recoveryDeadline)
	grown.InjectFailure(1, 1) // one collective per rank per step on the grown group: dies in step 3
	if _, err := grown.Step(3); err == nil {
		t.Fatal("scripted failure did not surface")
	}
	small, err := grown.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	mustStep(t, small, 3)
	check(small, "shrunk to L=3")
}
