package experiments

import "time"

// device is a modeled accelerator. It stands in for the GPU the paper ran
// on (NVIDIA Tesla V100, 32 GB), which this reproduction does not have, and
// captures the three effects that shape the paper's timing tables:
//
//  1. Kernel-launch / framework latency: each of the n sequential
//     autoregressive sampling steps, and each MCMC step, pays a fixed
//     overhead regardless of batch size. This is what makes MADE+AUTO time
//     linear in n (Table 1) and RBM+MCMC time linear in the chain length
//     (Tables 1, 4).
//  2. Floating-point throughput: per-iteration matrix work 4*h*n*bs flops
//     per forward pass.
//  3. Memory capacity: the TIM local-energy evaluation materializes all
//     single-flip configurations, O(bs * n^2) words, which bounds the
//     memory-saturating batch ladder of Table 7 (2^19 samples at n=20 down
//     to 2^2 at n=10000).
//
// The latency/throughput constants are calibrated once against the paper's
// Table 1 and Table 6; they are not fit per-experiment.
type device struct {
	// WorkspaceBytes is the memory budget available for the activation /
	// flip-configuration workspace (a fraction of total device memory).
	WorkspaceBytes float64
	// Throughput is sustained FLOP/s on the dense kernels involved.
	Throughput float64
	// KernelLatency is the fixed overhead per launched kernel sequence
	// (one autoregressive sampling step).
	KernelLatency time.Duration
	// MCMCStepLatency is the fixed overhead per Metropolis-Hastings step
	// (framework loop iteration driving a tiny kernel).
	MCMCStepLatency time.Duration
	// MaxBatch caps the per-device batch regardless of memory.
	MaxBatch int
	// BytesPerWord is the storage width of the workspace (8 = fp64).
	BytesPerWord float64
}

// v100 returns the model calibrated against the paper's testbed
// (Tesla V100, 32 GB): KernelLatency 0.3 ms and MCMCStepLatency 0.65 ms
// reproduce Table 1 within ~15%, and the 4.2 GB flip workspace reproduces
// the exact memory-saturating batch ladder of Table 7.
func v100() device {
	return device{
		WorkspaceBytes:  4.2e9,
		Throughput:      5e12,
		KernelLatency:   300 * time.Microsecond,
		MCMCStepLatency: 650 * time.Microsecond,
		MaxBatch:        1 << 19,
		BytesPerWord:    8,
	}
}

// forwardFlops is the flop count of one MADE/RBM-style forward pass over a
// batch: two dense layers of shape (h x n) and (n x h) at 2 flops per MAC.
// The outer conversion keeps a caller's 2*flops, which the compiler turns
// into flops+flops, from fusing into the product on arm64.
func forwardFlops(n, h, bs int) float64 {
	return float64(4 * float64(h) * float64(n) * float64(bs))
}

// madeParams is the parameter count d = 2hn + h + n of the paper's MADE.
func madeParams(n, h int) int { return 2*h*n + h + n }

// rbmParams is the parameter count d = hn + h + n + 1 of the paper's RBM.
func rbmParams(n, h int) int { return h*n + h + n + 1 }

// MaxBatchTIM returns the largest power-of-two batch whose TIM local-energy
// flip workspace bs * n^2 words fits the device budget. It reproduces the
// paper's Table 7 ladder exactly: 2^19 at n=20 ... 2^2 at n=10000.
func (d device) MaxBatchTIM(n int) int {
	perSample := float64(n) * float64(n) * d.BytesPerWord
	fits := d.WorkspaceBytes / perSample
	bs := 1
	for bs*2 <= d.MaxBatch && float64(bs*2) <= fits {
		bs *= 2
	}
	return bs
}

// iterCost decomposes one modeled training iteration.
type iterCost struct {
	Sample time.Duration // drawing the batch
	Energy time.Duration // local-energy measurement
	Grad   time.Duration // backward pass
	Update time.Duration // optimizer step
}

// Total is the summed iteration time.
func (c iterCost) Total() time.Duration { return c.Sample + c.Energy + c.Grad + c.Update }

func (d device) flopTime(flops float64) time.Duration {
	return time.Duration(flops / d.Throughput * float64(time.Second))
}

// MADEAutoIter models one MADE+AUTO VQMC iteration on this device:
// n sequential sampling passes (Algorithm 1), a batched local-energy
// evaluation over bs*(flips+1) configurations, and a backward pass.
// flips is the number of off-diagonal terms per row (n for TIM, 0 for
// Max-Cut).
func (d device) MADEAutoIter(n, h, bs, flips int) iterCost {
	var c iterCost
	c.Sample = time.Duration(n)*d.KernelLatency + d.flopTime(float64(n)*forwardFlops(n, h, bs))
	evals := bs * (flips + 1)
	c.Energy = 2*d.KernelLatency + d.flopTime(forwardFlops(n, h, evals))
	c.Grad = 2*d.KernelLatency + d.flopTime(2*forwardFlops(n, h, bs))
	c.Update = d.KernelLatency + d.flopTime(float64(madeParams(n, h)))
	return c
}

// RBMMCMCIter models one RBM+MCMC iteration: (burnIn + thin*bs/chains)
// sequential MH steps (chains advance in lockstep on-device, so wall time
// scales with steps per chain), then the same measurement/backward phases.
func (d device) RBMMCMCIter(n, h, bs, chains, burnIn, thin int, flips int) iterCost {
	if chains < 1 {
		chains = 1
	}
	if thin < 1 {
		thin = 1
	}
	steps := burnIn + thin*bs/chains
	var c iterCost
	// Each MH step evaluates an O(h) amplitude ratio per chain.
	stepFlops := 4 * float64(h) * float64(chains)
	c.Sample = time.Duration(steps)*d.MCMCStepLatency + d.flopTime(float64(steps)*stepFlops)
	evals := bs * (flips + 1)
	c.Energy = 2*d.KernelLatency + d.flopTime(forwardFlops(n, h, evals))
	c.Grad = 2*d.KernelLatency + d.flopTime(2*forwardFlops(n, h, bs))
	c.Update = d.KernelLatency + d.flopTime(float64(rbmParams(n, h)))
	return c
}

// trainingTime is the modeled wall time for iters iterations.
func trainingTime(c iterCost, iters int) time.Duration {
	return time.Duration(iters) * c.Total()
}
