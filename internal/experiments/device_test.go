package experiments

import (
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/nn"
)

func TestHiddenMADE(t *testing.T) {
	// h = 5 (ln n)^2: spot values.
	cases := map[int]int{20: 45, 100: 106, 500: 193, 10000: 424}
	for n, want := range cases {
		if got := nn.HiddenMADE(n); got < want-2 || got > want+2 {
			t.Errorf("nn.HiddenMADE(%d) = %d, want ~%d", n, got, want)
		}
	}
	if nn.HiddenMADE(1) < 1 {
		t.Error("HiddenMADE must be >= 1")
	}
}

func TestParamCounts(t *testing.T) {
	if madeParams(10000, 500) != 2*500*10000+500+10000 {
		t.Fatal("MADE param formula wrong")
	}
	// The paper's memory anecdote: ~10M parameters at n=10K, h=500.
	if p := madeParams(10000, 500); p < 10_000_000 || p > 10_100_000 {
		t.Fatalf("10K-dim model has %d params, expected ~10M", p)
	}
	if rbmParams(5, 3) != 3*5+3+5+1 {
		t.Fatal("RBM param formula wrong")
	}
}

func TestMaxBatchLadderMatchesPaperTable7(t *testing.T) {
	// The paper saturates GPU memory with these per-GPU batch sizes.
	d := v100()
	want := map[int]int{
		20:    1 << 19,
		50:    1 << 17,
		100:   1 << 15,
		200:   1 << 13,
		500:   1 << 11,
		1000:  1 << 9,
		2000:  1 << 7,
		5000:  1 << 4,
		10000: 1 << 2,
	}
	for n, w := range want {
		if got := d.MaxBatchTIM(n); got != w {
			t.Errorf("MaxBatchTIM(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestMaxBatchMonotone(t *testing.T) {
	d := v100()
	prev := d.MaxBatchTIM(10)
	for _, n := range []int{20, 50, 100, 1000, 10000} {
		cur := d.MaxBatchTIM(n)
		if cur > prev {
			t.Fatalf("MaxBatchTIM not non-increasing at n=%d", n)
		}
		if cur < 1 {
			t.Fatalf("MaxBatchTIM(%d) = %d", n, cur)
		}
		prev = cur
	}
}

func TestMADEAutoIterLinearInN(t *testing.T) {
	// With fixed bs, MADE+AUTO iteration time must grow ~linearly in n
	// (Table 1 behaviour: latency-dominated sequential sampling).
	d := v100()
	t100 := d.MADEAutoIter(100, nn.HiddenMADE(100), 1024, 100).Total()
	t500 := d.MADEAutoIter(500, nn.HiddenMADE(500), 1024, 500).Total()
	ratio := float64(t500) / float64(t100)
	if ratio < 3.5 || ratio > 9 {
		t.Fatalf("time ratio 500/100 = %v, want ~5 (linear)", ratio)
	}
}

func TestTable1ShapeMADEVsRBM(t *testing.T) {
	// RBM+MCMC must be slower than MADE+AUTO at every paper dimension, by
	// a factor that shrinks as n grows (paper: 47x at n=20, 9x at n=500).
	d := v100()
	prevRatio := 1e9
	for _, n := range []int{20, 50, 100, 200, 500} {
		made := trainingTime(d.MADEAutoIter(n, nn.HiddenMADE(n), 1024, n), 300)
		rbm := trainingTime(d.RBMMCMCIter(n, n, 1024, 2, 3*n+100, 1, n), 300)
		if rbm <= made {
			t.Fatalf("n=%d: RBM (%v) not slower than MADE (%v)", n, rbm, made)
		}
		ratio := float64(rbm) / float64(made)
		if ratio > prevRatio*1.2 {
			t.Fatalf("n=%d: speedup ratio grew (%v -> %v), want shrinking", n, prevRatio, ratio)
		}
		prevRatio = ratio
	}
}

func TestTable1AbsoluteCalibration(t *testing.T) {
	// Within 2x of the paper's reported seconds for 300 iterations.
	d := v100()
	paperMADE := map[int]float64{20: 2.85, 50: 5.74, 100: 10.63, 200: 20.45, 500: 49.62}
	paperRBM := map[int]float64{20: 135.64, 50: 154.25, 100: 189.91, 200: 249.40, 500: 456.68}
	for n, want := range paperMADE {
		got := trainingTime(d.MADEAutoIter(n, nn.HiddenMADE(n), 1024, n), 300).Seconds()
		if got < want/2 || got > want*2 {
			t.Errorf("MADE n=%d modeled %.2fs, paper %.2fs (off >2x)", n, got, want)
		}
	}
	for n, want := range paperRBM {
		got := trainingTime(d.RBMMCMCIter(n, n, 1024, 2, 3*n+100, 1, n), 300).Seconds()
		if got < want/2 || got > want*2 {
			t.Errorf("RBM n=%d modeled %.2fs, paper %.2fs (off >2x)", n, got, want)
		}
	}
}

func TestMCMCChainTradeoff(t *testing.T) {
	// More chains shorten the per-iteration wall time (bs/c steps) but
	// burn-in stays sequential: the paper's Eq. 14 structure.
	d := v100()
	t1 := d.RBMMCMCIter(100, 100, 1024, 1, 400, 1, 100).Sample
	t4 := d.RBMMCMCIter(100, 100, 1024, 4, 400, 1, 100).Sample
	if t4 >= t1 {
		t.Fatal("more chains should reduce sampling time")
	}
	// With huge burn-in the chain count hardly matters.
	b1 := d.RBMMCMCIter(100, 100, 64, 1, 100000, 1, 100).Sample
	b4 := d.RBMMCMCIter(100, 100, 64, 4, 100000, 1, 100).Sample
	if float64(b1)/float64(b4) > 1.01 {
		t.Fatal("burn-in-dominated regime should not parallelize")
	}
}

func TestThinningScalesTime(t *testing.T) {
	d := v100()
	base := d.RBMMCMCIter(100, 100, 1024, 2, 0, 1, 100).Sample
	x5 := d.RBMMCMCIter(100, 100, 1024, 2, 0, 5, 100).Sample
	ratio := float64(x5) / float64(base)
	if ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("thinning x5 time ratio %v, want ~5 (Table 4 behaviour)", ratio)
	}
}

func TestDiagonalHamiltonianCheaperEnergy(t *testing.T) {
	d := v100()
	tim := d.MADEAutoIter(200, 120, 1024, 200)
	mc := d.MADEAutoIter(200, 120, 1024, 0)
	if mc.Energy >= tim.Energy {
		t.Fatal("Max-Cut (diagonal) energy phase should be cheaper than TIM")
	}
}

func TestIterCostComponentsPositive(t *testing.T) {
	d := v100()
	c := d.MADEAutoIter(50, 76, 256, 50)
	for _, v := range []time.Duration{c.Sample, c.Energy, c.Grad, c.Update} {
		if v <= 0 {
			t.Fatalf("non-positive phase cost: %+v", c)
		}
	}
	if c.Total() != c.Sample+c.Energy+c.Grad+c.Update {
		t.Fatal("Total mismatch")
	}
}
