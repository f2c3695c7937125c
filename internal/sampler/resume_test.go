package sampler

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func batchesEqual(a, b *Batch) bool {
	if a.N != b.N || a.Sites != b.Sites {
		return false
	}
	for i, v := range a.Bits {
		if v != b.Bits[i] {
			return false
		}
	}
	return true
}

// resumableRoundTrip drives the core contract: sample once, snapshot,
// sample twice more, restore, and demand the replayed batches are
// bit-identical to the originals — the property recovery leans on.
func resumableRoundTrip(t *testing.T, s Sampler, n int) {
	t.Helper()
	r, ok := s.(Resumable)
	if !ok {
		t.Fatal("sampler does not implement Resumable")
	}
	warm := NewBatch(32, n)
	s.Sample(warm) // move off the initial stream position first
	snap := r.Snapshot()
	ref1, ref2 := NewBatch(32, n), NewBatch(32, n)
	s.Sample(ref1)
	s.Sample(ref2)
	r.Restore(snap)
	got1, got2 := NewBatch(32, n), NewBatch(32, n)
	s.Sample(got1)
	s.Sample(got2)
	if !batchesEqual(ref1, got1) || !batchesEqual(ref2, got2) {
		t.Fatal("restored sampler did not replay bit-identical batches")
	}
}

func TestAutoResumable(t *testing.T) {
	n := 8
	m := nn.NewMADE(n, 10, rng.New(41))
	resumableRoundTrip(t, NewAutoBatched(n, m, 3, rng.New(42)), n)
	resumableRoundTrip(t, NewAutoBatched(n, m.NaiveAncestral(), 2, rng.New(42)), n)
}

// TestAutoBatchedResumable: Auto's position is one stream whatever its
// worker count, so a state captured at one worker restores into a sampler
// built at three (and from another seed) and replays the same batches — a
// replacement replica need not match the lost one's Workers.
func TestAutoBatchedResumable(t *testing.T) {
	n := 8
	m := nn.NewNADE(n, 10, rng.New(41))
	resumableRoundTrip(t, NewAutoBatched(n, m, 1, rng.New(42)), n)

	lost, repl := NewAutoBatched(n, m, 1, rng.New(42)), NewAutoBatched(n, m, 3, rng.New(99))
	warm := NewBatch(32, n)
	lost.Sample(warm)
	repl.Restore(lost.Snapshot())
	want, got := NewBatch(32, n), NewBatch(32, n)
	lost.Sample(want)
	repl.Sample(got)
	if !batchesEqual(want, got) {
		t.Fatal("state captured at 1 worker did not replay at 3")
	}
}

func TestMCMCResumable(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(43))
	cfg := MCMCConfig{Chains: 3, BurnIn: 10, Persistent: true}
	resumableRoundTrip(t, NewMCMC(m, cfg, rng.New(44)), n)
}

func TestMCMCNonPersistentResumable(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(43))
	cfg := MCMCConfig{Chains: 2, BurnIn: 10}
	resumableRoundTrip(t, NewMCMC(m, cfg, rng.New(45)), n)
}

func TestGibbsResumable(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(46))
	cfg := MCMCConfig{Chains: 2, BurnIn: 5, Persistent: true}
	resumableRoundTrip(t, NewGibbs(m, cfg, rng.New(47)), n)
}

// TestSnapshotIsDeepCopy: mutating the sampler after Snapshot must not
// corrupt the captured state.
func TestSnapshotIsDeepCopy(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(48))
	s := NewMCMC(m, MCMCConfig{Chains: 2, BurnIn: 5, Persistent: true}, rng.New(49))
	snap := s.Snapshot()
	ref := NewBatch(16, n)
	s.Sample(ref) // mutates rngs and chain states
	s.Restore(snap)
	got := NewBatch(16, n)
	s.Sample(got)
	if !batchesEqual(ref, got) {
		t.Fatal("snapshot shared storage with the live sampler")
	}
}

// TestRestoreShapeMismatchPanics: restoring a state with the wrong stream
// count must panic loudly rather than silently desynchronize.
func TestRestoreShapeMismatchPanics(t *testing.T) {
	n := 6
	m := nn.NewRBM(n, 4, rng.New(50))
	a := NewMCMC(m, MCMCConfig{Chains: 2}, rng.New(51))
	b := NewMCMC(m, MCMCConfig{Chains: 3}, rng.New(52))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Restore did not panic")
		}
	}()
	a.Restore(b.Snapshot())
}
