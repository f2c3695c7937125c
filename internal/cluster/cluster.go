// Package cluster composes the device model and the alpha-beta collective
// model into multi-node topologies (L1 nodes x L2 GPUs per node) and
// evaluates the weak-scaling behaviour the paper reports in Figure 3 and
// Tables 6-7: per-iteration time = local compute + hierarchical gradient
// all-reduce, with distinct intra-node (NVLink-class) and inter-node
// (network-class) links.
package cluster

import (
	"fmt"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/device"
	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// Topology is a homogeneous GPU cluster.
type Topology struct {
	Nodes       int
	GPUsPerNode int
	Device      device.Device
	Intra       comm.Link // links among GPUs within a node
	Inter       comm.Link // links among nodes
}

// Default returns the modeled testbed: V100 GPUs, NVLink-class intra-node
// links (~50 GB/s effective, 5 us) and a network-class inter-node link
// (~10 GB/s effective, 20 us).
func Default(nodes, gpusPerNode int) Topology {
	return Topology{
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		Device:      device.V100(),
		Intra:       comm.Link{Latency: 5 * time.Microsecond, Bandwidth: 50e9},
		Inter:       comm.Link{Latency: 20 * time.Microsecond, Bandwidth: 10e9},
	}
}

// GPUs is the total device count L = L1 * L2.
func (t Topology) GPUs() int { return t.Nodes * t.GPUsPerNode }

// String formats the topology as the paper writes it, e.g. "6x4".
func (t Topology) String() string { return fmt.Sprintf("%dx%d", t.Nodes, t.GPUsPerNode) }

// AllReduceTime is the modeled hierarchical ring all-reduce of d float32
// gradients (the paper trains in single precision).
func (t Topology) AllReduceTime(params int) time.Duration {
	bytes := float64(params) * 4
	return comm.HierarchicalAllReduceTime(bytes, t.Nodes, t.GPUsPerNode, t.Intra, t.Inter)
}

// IterTime models one distributed MADE+AUTO iteration: every device
// computes on its local mini-batch concurrently, then gradients are
// all-reduced. mbs is the per-device batch.
func (t Topology) IterTime(n, h, mbs, flips int) time.Duration {
	compute := t.Device.MADEAutoIter(n, h, mbs, flips).Total()
	if t.GPUs() == 1 {
		return compute
	}
	return compute + t.AllReduceTime(device.MADEParams(n, h))
}

// TrainingTime is the modeled wall time of iters distributed iterations.
func (t Topology) TrainingTime(n, h, mbs, flips, iters int) time.Duration {
	return time.Duration(iters) * t.IterTime(n, h, mbs, flips)
}

// WeakScalingPoint is one (topology, time) measurement of a sweep.
type WeakScalingPoint struct {
	Topology   Topology
	GPUs       int
	Time       time.Duration
	Normalized float64 // filled by WeakScaling
}

// WeakScaling evaluates the modeled training time across GPU configurations
// with the per-device batch held fixed (the paper's weak-scaling protocol)
// and normalizes by the largest configuration's time, exactly as in
// Figure 3. configs are (nodes, gpusPerNode) pairs.
func WeakScaling(configs [][2]int, n, mbs, iters int) []WeakScalingPoint {
	h := nn.HiddenMADE(n)
	pts := make([]WeakScalingPoint, len(configs))
	for i, c := range configs {
		topo := Default(c[0], c[1])
		pts[i] = WeakScalingPoint{
			Topology: topo,
			GPUs:     topo.GPUs(),
			Time:     topo.TrainingTime(n, h, mbs, n, iters),
		}
	}
	// Normalize by the largest configuration (most GPUs; ties broken by
	// order, matching the paper's "largest GPU configuration (6x4)").
	ref := pts[0]
	for _, p := range pts[1:] {
		if p.GPUs > ref.GPUs {
			ref = p
		}
	}
	for i := range pts {
		pts[i].Normalized = float64(pts[i].Time) / float64(ref.Time)
	}
	return pts
}

// PaperConfigs are the GPU configurations of Tables 6-7: 1x1 up to 6x4.
func PaperConfigs() [][2]int {
	return [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 2}, {6, 4}}
}

// Efficiency returns the weak-scaling efficiency T(1)/T(L) of a sweep that
// includes a single-GPU point; 1.0 is perfect.
func Efficiency(pts []WeakScalingPoint) float64 {
	var t1, tL time.Duration
	maxGPUs := 0
	for _, p := range pts {
		if p.GPUs == 1 {
			t1 = p.Time
		}
		if p.GPUs > maxGPUs {
			maxGPUs = p.GPUs
			tL = p.Time
		}
	}
	if t1 == 0 || tL == 0 {
		return 0
	}
	return float64(t1) / float64(tL)
}

// MCMCParallelEfficiency evaluates the paper's Eq. 14: the parallel
// efficiency of MCMC sampling with burn-in k and thinning j when producing
// nSamples per unit on L units is (k + (n L - 1) j + 1)/(k + (n-1) j + 1);
// the slope in L decays as burn-in grows, capping MCMC scalability.
func MCMCParallelEfficiency(k, j, nSamples, L int) float64 {
	num := float64(k + (nSamples*L-1)*j + 1)
	den := float64(k + (nSamples-1)*j + 1)
	return num / den / float64(L)
}
