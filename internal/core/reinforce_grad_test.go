package core

import (
	"math"
	"runtime"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// TestAddWeightedGradMatchesSlabPath: for every family and worker count,
// BatchedEval.AddWeightedGrad — the REINFORCE gradient of the step — equals,
// in every bit, the reference the benchmark's unrolled twin still runs:
// FillOws into GradSlabRows-row slabs, each reduced by AddWeightedRows. The
// batch is neither a slab nor a block multiple.
func TestAddWeightedGradMatchesSlabPath(t *testing.T) {
	const n, bs = 9, 300
	r := rng.New(71)
	models := map[string]Model{
		"MADE": nn.NewMADE(n, 11, r.Split()), "NADE": nn.NewNADE(n, 11, r.Split()),
		"RBM": nn.NewRBM(n, 11, r.Split()),
	}
	b := sampler.NewBatch(bs, n)
	r.FillBits(b.Bits)
	w := make([]float64, bs)
	r.FillNorm(w, 1.0/bs)
	for name, m := range models {
		d := m.NumParams()
		for _, workers := range []int{1, 2, 5} {
			e := NewBatchedEval(m, EvalAuto, workers)
			want, got := tensor.NewVector(d), tensor.NewVector(d)
			slab, parts := tensor.NewBatch(GradSlabRows, d), tensor.NewBatch(GradBlocks(GradSlabRows), d)
			for lo := 0; lo < bs; lo += GradSlabRows {
				hi := min(lo+GradSlabRows, bs)
				rows := &tensor.Batch{N: hi - lo, Dim: d, Data: slab.Data[:(hi-lo)*d]}
				e.FillOws(&sampler.Batch{N: hi - lo, Sites: n, Bits: b.Bits[lo*n : hi*n]}, rows)
				AddWeightedRows(want, rows, w[lo:hi], parts, workers)
			}
			e.AddWeightedGrad(b, w, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s w=%d: element %d fused %v != slab path %v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReinforceStepFootprint runs the shape the benchmark issue asked for and
// the slab stream could not hold in cache — dense Max-Cut n=128, MADE with
// h = 5 (ln n)^2 = 118 (d = 30 454), B = 1024, two workers — and checks
// that the REINFORCE step's footprint does not depend on B x d: building the
// trainer and running three steps allocates, in total, less than a quarter of
// what ONE GradSlabRows-row O-slab took (so no buffer of order 128 x d, let
// alone B x d, exists anywhere), and the steps after the first allocate
// nothing of their own — no workspace, only the few KiB of closures and
// dispatch bookkeeping every parallel section costs.
func TestReinforceStepFootprint(t *testing.T) {
	const n, bs, workers = 128, 1024, 2
	h := int(math.Round(5 * math.Log(n) * math.Log(n)))
	r := rng.New(5)
	mc := hamiltonian.NewMaxCut(graph.RandomBernoulli(n, r))
	m := nn.NewMADE(n, h, r.Split())
	d := m.NumParams()
	if d != 30454 {
		t.Fatalf("d = %d, want the roadmap's 30454", d)
	}
	slabBytes := uint64(GradSlabRows * d * 8)

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := New(mc, m, sampler.NewAutoBatched(m.NumSites(), m, workers, r.Split()), optimizer.NewAdam(0.01),
		Config{BatchSize: bs, Workers: workers})
	tr.Step()
	runtime.ReadMemStats(&m1)
	tr.Step()
	tr.Step()
	runtime.ReadMemStats(&m2)

	if total := m2.TotalAlloc - m0.TotalAlloc; total > slabBytes/4 {
		t.Errorf("trainer + 3 steps allocated %d bytes; a %d-row O-slab alone is %d", total, GradSlabRows, slabBytes)
	}
	if steady := (m2.TotalAlloc - m1.TotalAlloc) / 2; steady > 64<<10 {
		t.Errorf("a steady-state step allocated %d bytes; a d-vector is %d", steady, d*8)
	}
	t.Logf("trainer + first step %d KiB, then %d KiB a step (one O-slab: %d KiB)",
		(m1.TotalAlloc-m0.TotalAlloc)>>10, (m2.TotalAlloc-m1.TotalAlloc)/2>>10, slabBytes>>10)
}
