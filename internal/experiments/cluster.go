package experiments

import (
	"fmt"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// topology is a homogeneous GPU cluster of L1 nodes x L2 GPUs per node. It
// composes the device model and the alpha-beta collective model to evaluate
// the weak-scaling behaviour the paper reports in Figure 3 and Tables 6-7:
// per-iteration time = local compute + hierarchical gradient all-reduce,
// with distinct intra-node (NVLink-class) and inter-node (network-class)
// links.
type topology struct {
	Nodes       int
	GPUsPerNode int
	Device      device
	Intra       comm.Link // links among GPUs within a node
	Inter       comm.Link // links among nodes
}

// newTopology returns the modeled testbed: V100 GPUs, NVLink-class
// intra-node links (~50 GB/s effective, 5 us) and a network-class
// inter-node link (~10 GB/s effective, 20 us).
func newTopology(nodes, gpusPerNode int) topology {
	return topology{
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		Device:      v100(),
		Intra:       comm.Link{Latency: 5 * time.Microsecond, Bandwidth: 50e9},
		Inter:       comm.Link{Latency: 20 * time.Microsecond, Bandwidth: 10e9},
	}
}

// GPUs is the total device count L = L1 * L2.
func (t topology) GPUs() int { return t.Nodes * t.GPUsPerNode }

// String formats the topology as the paper writes it, e.g. "6x4".
func (t topology) String() string { return fmt.Sprintf("%dx%d", t.Nodes, t.GPUsPerNode) }

// AllReduceTime is the modeled hierarchical ring all-reduce of d float32
// gradients (the paper trains in single precision).
func (t topology) AllReduceTime(params int) time.Duration {
	bytes := float64(params) * 4
	return hierarchicalAllReduceTime(bytes, t.Nodes, t.GPUsPerNode, t.Intra, t.Inter)
}

// hierarchicalAllReduceTime models the two-level collective used on
// L1 nodes x L2 GPUs-per-node clusters: ring reduce within each node over
// the fast intra link, ring across node leaders over the slow inter link,
// then an intra-node broadcast.
func hierarchicalAllReduceTime(nBytes float64, nodes, perNode int, intra, inter comm.Link) time.Duration {
	var t time.Duration
	if perNode > 1 {
		t += comm.RingAllReduceTime(nBytes, perNode, intra)
	}
	if nodes > 1 {
		t += comm.RingAllReduceTime(nBytes, nodes, inter)
	}
	if perNode > 1 && nodes > 1 {
		// Leaders rebroadcast the cross-node result inside each node.
		t += intra.Transfer(nBytes)
	}
	return t
}

// IterTime models one distributed MADE+AUTO iteration: every device
// computes on its local mini-batch concurrently, then gradients are
// all-reduced. mbs is the per-device batch.
func (t topology) IterTime(n, h, mbs, flips int) time.Duration {
	compute := t.Device.MADEAutoIter(n, h, mbs, flips).Total()
	if t.GPUs() == 1 {
		return compute
	}
	return compute + t.AllReduceTime(madeParams(n, h))
}

// TrainingTime is the modeled wall time of iters distributed iterations.
func (t topology) TrainingTime(n, h, mbs, flips, iters int) time.Duration {
	return time.Duration(iters) * t.IterTime(n, h, mbs, flips)
}

// weakScalingPoint is one (topology, time) measurement of a sweep.
type weakScalingPoint struct {
	Topology   topology
	Time       time.Duration
	Normalized float64 // filled by weakScaling
}

// weakScaling evaluates the modeled training time across GPU configurations
// with the per-device batch held fixed (the paper's weak-scaling protocol)
// and normalizes by the largest configuration's time, exactly as in
// Figure 3. configs are (nodes, gpusPerNode) pairs.
func weakScaling(configs [][2]int, n, mbs, iters int) []weakScalingPoint {
	h := nn.HiddenMADE(n)
	pts := make([]weakScalingPoint, len(configs))
	for i, c := range configs {
		topo := newTopology(c[0], c[1])
		pts[i] = weakScalingPoint{
			Topology: topo,
			Time:     topo.TrainingTime(n, h, mbs, n, iters),
		}
	}
	// Normalize by the largest configuration (most GPUs; ties broken by
	// order, matching the paper's "largest GPU configuration (6x4)").
	ref := pts[0]
	for _, p := range pts[1:] {
		if p.Topology.GPUs() > ref.Topology.GPUs() {
			ref = p
		}
	}
	for i := range pts {
		pts[i].Normalized = float64(pts[i].Time) / float64(ref.Time)
	}
	return pts
}

// paperConfigs are the GPU configurations of Tables 6-7: 1x1 up to 6x4.
func paperConfigs() [][2]int {
	return [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 2}, {6, 4}}
}

// efficiency returns the weak-scaling efficiency T(1)/T(L) of a sweep that
// includes a single-GPU point; 1.0 is perfect.
func efficiency(pts []weakScalingPoint) float64 {
	var t1, tL time.Duration
	maxGPUs := 0
	for _, p := range pts {
		if p.Topology.GPUs() == 1 {
			t1 = p.Time
		}
		if p.Topology.GPUs() > maxGPUs {
			maxGPUs = p.Topology.GPUs()
			tL = p.Time
		}
	}
	if t1 == 0 || tL == 0 {
		return 0
	}
	return float64(t1) / float64(tL)
}

// mcmcParallelEfficiency evaluates the paper's Eq. 14: the parallel
// efficiency of MCMC sampling with burn-in k and thinning j when producing
// nSamples per unit on L units is (k + (n L - 1) j + 1)/(k + (n-1) j + 1);
// the slope in L decays as burn-in grows, capping MCMC scalability.
func mcmcParallelEfficiency(k, j, nSamples, L int) float64 {
	num := float64(k + (nSamples*L-1)*j + 1)
	den := float64(k + (nSamples-1)*j + 1)
	return num / den / float64(L)
}
