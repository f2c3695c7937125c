package core

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// FuzzDistinctRows: LocalEnergies, FillOws and LogPsi through one
// BatchedEval on a batch with fuzzer-chosen duplicates must equal, row for
// row, the same calls on an all-distinct batch: the row beside a unique
// second row (itself with bit 0 flipped), which the distinct pass hands to
// the evaluator as it is. The fuzzer picks n in 1..130, B, the pool of rows
// the batch is drawn from and the pattern that draws it, the worker count,
// the family and whether the Hamiltonian is TIM (flip path) or Max-Cut
// (diagonal only).
func FuzzDistinctRows(f *testing.F) {
	f.Add(uint8(8), uint8(20), uint8(2), []byte{0, 1, 2, 1, 0}, uint8(0), uint8(0), false, uint64(1))
	f.Add(uint8(129), uint8(47), uint8(0), []byte{}, uint8(4), uint8(1), false, uint64(2))
	f.Add(uint8(0), uint8(9), uint8(7), []byte{3}, uint8(1), uint8(2), true, uint64(3))
	f.Add(uint8(40), uint8(33), uint8(4), []byte{0, 0, 1, 5, 2, 2, 2}, uint8(2), uint8(3), false, uint64(4))
	f.Add(uint8(63), uint8(31), uint8(1), []byte{1, 0}, uint8(3), uint8(0), true, uint64(5))
	f.Fuzz(func(t *testing.T, nSel, bSel, poolSel uint8, pattern []byte, wSel, family uint8, diagonal bool, seed uint64) {
		n, bs, workers := 1+int(nSel)%130, 1+int(bSel)%48, 1+int(wSel)%5
		r := rng.New(seed)
		var wf nn.Wavefunction
		switch family % 3 {
		case 0:
			wf = nn.NewMADE(n, 4, r.Split())
		case 1:
			wf = nn.NewRBM(n, 4, r.Split())
		default:
			wf = nn.NewNADE(n, 4, r.Split())
		}
		var h hamiltonian.Hamiltonian = hamiltonian.RandomTIM(n, r)
		if diagonal {
			h = hamiltonian.NewMaxCut(graph.RandomBernoulli(n, r))
		}
		pool := sampler.NewBatch(1+int(poolSel)%8, n)
		r.FillBits(pool.Bits)
		b := sampler.NewBatch(bs, n)
		for k := range bs {
			i := k
			if len(pattern) > 0 {
				i = int(pattern[k%len(pattern)])
			}
			copy(b.Row(k), pool.Row(i%pool.N))
		}

		d := wf.NumParams()
		e := NewBatchedEval(wf, EvalAuto, workers)
		en, lp, ows := nans(bs), nans(bs), &tensor.Batch{N: bs, Dim: d, Data: nans(bs * d)}
		e.LocalEnergies(h, b, workers, en)
		e.FillOws(b, ows)
		e.LogPsi(b, lp)

		ref := NewBatchedEval(wf, EvalAuto, workers)
		pair := sampler.NewBatch(2, n)
		pen, plp, pows := make([]float64, 2), make([]float64, 2), tensor.NewBatch(2, d)
		for k := range bs {
			copy(pair.Row(0), b.Row(k))
			copy(pair.Row(1), b.Row(k))
			pair.Row(1)[0] ^= 1
			ref.LocalEnergies(h, pair, workers, pen)
			ref.FillOws(pair, pows)
			ref.LogPsi(pair, plp)
			if en[k] != pen[0] || lp[k] != plp[0] {
				t.Fatalf("n=%d B=%d w=%d %T row %d: energy %v / logpsi %v, all-distinct %v / %v",
					n, bs, workers, wf, k, en[k], lp[k], pen[0], plp[0])
			}
			for i, v := range ows.Sample(k) {
				if v != pows.Sample(0)[i] {
					t.Fatalf("n=%d B=%d w=%d %T row %d: O element %d %v, all-distinct %v",
						n, bs, workers, wf, k, i, v, pows.Sample(0)[i])
				}
			}
		}
	})
}
