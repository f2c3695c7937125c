package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// BenchmarkStepPhases times Trainer.Step at the two gated training shapes of
// bench/ (dense Max-Cut n=64 h=86 and TIM n=32 h=60; MADE, B=1024, Adam
// 0.01) at one and two workers, after 24 untimed steps so the ReLU and bit
// sparsity the kernels key on has settled, and reports where the step went
// from Trainer.Timings(): sample, energy and grad milliseconds per step
// beside ns/op, and distinct/op, the mean number of distinct rows per step
// the energy phase evaluated. It is the per-phase attribution the
// benchmark's end-to-end numbers are explained with (docs/ARCHITECTURE.md,
// "The REINFORCE gradient writes no O-row" and "Distinct rows"); use
// -benchtime Nx.
func BenchmarkStepPhases(b *testing.B) {
	shapes := []struct {
		name string
		n, h int
		ham  func(n int, r *rng.Rand) hamiltonian.Hamiltonian
	}{
		{"maxcut64", 64, 86, func(n int, r *rng.Rand) hamiltonian.Hamiltonian {
			return hamiltonian.NewMaxCut(graph.RandomBernoulli(n, r))
		}},
		{"tim32", 32, 60, func(n int, r *rng.Rand) hamiltonian.Hamiltonian { return hamiltonian.RandomTIM(n, r) }},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w=%d", sh.name, workers), func(b *testing.B) {
				r := rng.New(1)
				h := sh.ham(sh.n, r)
				m := nn.NewMADE(sh.n, sh.h, r.Split())
				tr := New(h, m, sampler.NewAutoBatched(sh.n, m, workers, r.Split()), optimizer.NewAdam(0.01),
					Config{BatchSize: 1024, Workers: workers})
				for i := 0; i < 24; i++ {
					tr.Step()
				}
				t0 := tr.Timings()
				distinct := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Step()
					// Compact rows are numbered in first-occurrence order, so
					// the largest compact index of the step's energy batch is
					// its distinct count less one.
					distinct += slices.Max(tr.step.bev.uniq.of) + 1
				}
				b.StopTimer()
				t1 := tr.Timings()
				per := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
				b.ReportMetric(per(t1.Sample-t0.Sample), "sample_ms/op")
				b.ReportMetric(per(t1.Energy-t0.Energy), "energy_ms/op")
				b.ReportMetric(per(t1.Grad-t0.Grad), "grad_ms/op")
				b.ReportMetric(float64(distinct)/float64(b.N), "distinct/op")
			})
		}
	}
}
