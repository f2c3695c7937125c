package experiments

import (
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/nn"
)

func TestWeakScalingNearFlat(t *testing.T) {
	// The headline claim of Figure 3: with per-device batch fixed,
	// normalized execution times stay close to 1 across configurations.
	for _, tc := range []struct {
		n, mbs int
	}{
		{1000, 512}, {2000, 128}, {5000, 16}, {10000, 4},
	} {
		pts := weakScaling(paperConfigs(), tc.n, tc.mbs, 300)
		for _, p := range pts {
			// The paper's Figure 3 spans roughly [0.965, 1.005]; allow a
			// touch more (configs with more nodes than the 6x4 reference,
			// like 8x2, can exceed 1 slightly).
			if p.Normalized < 0.9 || p.Normalized > 1.02 {
				t.Errorf("n=%d %s: normalized time %.4f outside [0.9, 1.02]",
					tc.n, p.Topology, p.Normalized)
			}
		}
		if eff := efficiency(pts); eff < 0.9 {
			t.Errorf("n=%d: weak-scaling efficiency %.3f < 0.9", tc.n, eff)
		}
	}
}

func TestSingleGPUFastestButBarely(t *testing.T) {
	// Communication adds a small monotone-ish overhead: 1x1 must be the
	// cheapest configuration and 6x4 the reference (normalized 1.0).
	pts := weakScaling(paperConfigs(), 1000, 512, 300)
	if pts[0].Topology.GPUs() != 1 {
		t.Fatal("first paper config should be 1x1")
	}
	for _, p := range pts[1:] {
		if p.Time < pts[0].Time {
			t.Errorf("%s (%v) faster than single GPU (%v)", p.Topology, p.Time, pts[0].Time)
		}
	}
	last := pts[len(pts)-1]
	if last.Topology.String() != "6x4" || last.Normalized != 1.0 {
		t.Errorf("6x4 should normalize to 1.0, got %s %.4f", last.Topology, last.Normalized)
	}
}

func TestInterNodeCostsMoreThanIntraNode(t *testing.T) {
	// 4 GPUs in one node vs 4 nodes with 1 GPU each: same compute, the
	// spread-out topology pays the slower link.
	oneNode := newTopology(1, 4)
	fourNodes := newTopology(4, 1)
	d := madeParams(1000, nn.HiddenMADE(1000))
	if oneNode.AllReduceTime(d) >= fourNodes.AllReduceTime(d) {
		t.Fatal("inter-node all-reduce should cost more than intra-node")
	}
}

func TestIterTimeSingleVsMulti(t *testing.T) {
	n, h := 1000, nn.HiddenMADE(1000)
	single := newTopology(1, 1).IterTime(n, h, 512, n)
	multi := newTopology(2, 2).IterTime(n, h, 512, n)
	if multi <= single {
		t.Fatal("multi-GPU iteration must include communication time")
	}
	// But the overhead should be small relative to compute (weak scaling).
	if float64(multi-single)/float64(single) > 0.1 {
		t.Fatalf("communication overhead %.1f%% too large for weak scaling",
			100*float64(multi-single)/float64(single))
	}
}

func TestTable6TimesGrowWithDimension(t *testing.T) {
	// Fixed mbs=4 across dimensions (Table 6): time grows ~linearly in n
	// because sampling is n sequential passes.
	prev := newTopology(1, 1).TrainingTime(20, nn.HiddenMADE(20), 4, 20, 300)
	for _, n := range []int{50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		cur := newTopology(1, 1).TrainingTime(n, nn.HiddenMADE(n), 4, n, 300)
		if cur <= prev {
			t.Fatalf("training time not increasing at n=%d", n)
		}
		prev = cur
	}
	// Modeled 10K-dim run should land near the paper's ~1070 s.
	t10k := newTopology(1, 1).TrainingTime(10000, nn.HiddenMADE(10000), 4, 10000, 300)
	if t10k.Seconds() < 500 || t10k.Seconds() > 2200 {
		t.Fatalf("10K-dim modeled time %.0fs, paper ~1070s", t10k.Seconds())
	}
}

func TestTopologyString(t *testing.T) {
	if newTopology(6, 4).String() != "6x4" {
		t.Fatalf("String = %s", newTopology(6, 4).String())
	}
	if newTopology(6, 4).GPUs() != 24 {
		t.Fatalf("GPUs = %d", newTopology(6, 4).GPUs())
	}
}

func TestMCMCParallelEfficiencyDecaysWithBurnIn(t *testing.T) {
	// Eq. 14: with zero burn-in and thinning 1 the efficiency is perfect;
	// as k grows it decays toward 1/L.
	if e := mcmcParallelEfficiency(0, 1, 100, 8); e < 0.999 {
		t.Fatalf("k=0 efficiency %v, want 1", e)
	}
	e1 := mcmcParallelEfficiency(100, 1, 100, 8)
	e2 := mcmcParallelEfficiency(10000, 1, 100, 8)
	if !(e2 < e1 && e1 < 1) {
		t.Fatalf("efficiency should decay with burn-in: %v, %v", e1, e2)
	}
	if lim := mcmcParallelEfficiency(1<<30, 1, 100, 8); lim > 0.13 {
		t.Fatalf("large-k efficiency %v, want ~1/8", lim)
	}
}

func TestPaperConfigsCoverTable(t *testing.T) {
	cfgs := paperConfigs()
	if len(cfgs) != 9 {
		t.Fatalf("paper uses 9 configurations, got %d", len(cfgs))
	}
	seen := map[int]bool{}
	for _, c := range cfgs {
		seen[c[0]*c[1]] = true
	}
	for _, gpus := range []int{1, 2, 4, 8, 16, 24} {
		if !seen[gpus] {
			t.Errorf("missing a configuration with %d total GPUs", gpus)
		}
	}
}

func TestRingTimeModel(t *testing.T) {
	l := link{Latency: time.Microsecond, Bandwidth: 1e9}
	if ringAllReduceTime(1e6, 1, l) != 0 {
		t.Fatal("single rank should cost nothing")
	}
	t2 := ringAllReduceTime(1e6, 2, l)
	// 2 steps of 0.5MB at 1GB/s = 1ms + 2us latency.
	want := 2*time.Microsecond + time.Duration(1e6/1e9*1e9)*time.Nanosecond
	if t2 < want*9/10 || t2 > want*11/10 {
		t.Fatalf("ring time %v, want ~%v", t2, want)
	}
	// Ring moves 2(p-1)/p of the data regardless of p: time should be
	// nearly flat in p for bandwidth-dominated transfers.
	t16 := ringAllReduceTime(1e6, 16, l)
	if t16 > 3*t2 {
		t.Fatalf("ring time grew too fast with p: %v -> %v", t2, t16)
	}
}

func TestHierarchicalTimeModel(t *testing.T) {
	intra := link{Latency: 5 * time.Microsecond, Bandwidth: 100e9}
	inter := link{Latency: 20 * time.Microsecond, Bandwidth: 10e9}
	single := hierarchicalAllReduceTime(1e6, 1, 1, intra, inter)
	if single != 0 {
		t.Fatal("1x1 should cost nothing")
	}
	intraOnly := hierarchicalAllReduceTime(1e6, 1, 4, intra, inter)
	multi := hierarchicalAllReduceTime(1e6, 4, 4, intra, inter)
	if multi <= intraOnly {
		t.Fatal("adding inter-node stage should cost more")
	}
	// Inter-node stage should dominate: slower link.
	interOnly := hierarchicalAllReduceTime(1e6, 4, 1, intra, inter)
	if interOnly <= intraOnly {
		t.Fatal("inter-node ring should be slower than intra-node ring")
	}
}
