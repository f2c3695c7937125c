package main

import (
	"bytes"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// width is the fan-out the workload's evaluation runs at: its trainer
// workers, or serve's default (GOMAXPROCS) for the serve workloads.
func (p *problem) width() int {
	if p.workers > 0 {
		return p.workers
	}
	return two()
}

// fisherMaxBytes caps the O_k matrix the Fisher probe materializes; above
// it (Max-Cut n=64: 1024 x 11k doubles = 91 MB) the probe uses one
// gradient slab of rows and reports per row like everything else.
const fisherMaxBytes = 64 << 20

// probeLayers times calls into each library layer's public functions at the
// exact shape the workload issues (B rows, n sites, h hidden, d parameters,
// the workload's worker width) and appends the kernel-probe metrics.
func probeLayers(p *problem, cfg runCfg, res *result) {
	slice := cfg.probeSlice()
	r := rng.New(p.stream(streamProbe))
	B, n, h, W := p.batch, p.n, p.h, p.width()
	probe := func(name, unit string, perCall float64, fn func()) float64 {
		ns, _ := timeNs(slice, fn)
		res.add(name, ns/perCall, unit)
		return ns / perCall
	}

	// tensor: the GEMMs a two-layer forward over B rows is made of.
	bits := p.randomBatch(B, r)
	xf := tensor.NewMatrix(B, n)
	for i, b := range bits.Bits {
		xf.Data[i] = float64(b)
	}
	w1, w2, w2t := tensor.NewMatrix(n, h), tensor.NewMatrix(h, n), tensor.NewMatrix(n, h)
	act, z1, z2 := tensor.NewMatrix(B, h), tensor.NewMatrix(B, h), tensor.NewMatrix(B, n)
	for _, m := range []*tensor.Matrix{w1, w2, w2t, act} {
		r.FillNorm(m.Data, 1) // about half of act is negative, as pre-activations are
	}
	probe("tensor.matmul_ns", "ns", 1, func() { tensor.MatMul(z1, xf, w1, W) })
	relu := probe("tensor.matmul_relu_ns", "ns", 1, func() { tensor.MatMulReLU(z2, act, w2, W) })
	probe("tensor.matmul_t_ns", "ns", 1, func() { tensor.MatMulT(z2, act, w2t, W) })
	probe("tensor.matmul_cols_ns", "ns", 1, func() { tensor.MatMulCols(z2, act, w2, n/2, n, W) })
	flops := 2 * float64(B) * float64(h) * float64(n)
	res.add("tensor.gflops", flops/relu, "GFLOP/s") // computed: dense FLOPs of the shape over measured ns
	res.add("tensor.bytes_per_flop", 8*float64(B*h+h*n+B*n)/flops, "B/FLOP")

	// nn: the batched evaluator of the workload's family.
	m := p.newModel()
	d := m.NumParams()
	be, be1 := m.NewBatchEvaluator(W), m.NewBatchEvaluator(1)
	cb := nn.ConfigBatch{N: B, Sites: n, Bits: bits.Bits}
	out := make([]float64, B)
	probe("nn.logpsi_ns_row", "ns", float64(B), func() { be.LogPsiBatch(cb, out) })
	flips := make([]int, n)
	for i := range flips {
		flips[i] = i
	}
	delta := make([]float64, B*n)
	probe("nn.flip_ns_row", "ns", float64(B), func() { be.FlipLogPsiBatch(cb, flips, nil, delta) })
	// Batched against scalar flips, one worker each, as rows per second:
	// below 1 the batched kernel loses to the FlipCache loop.
	batched, _ := timeNs(slice, func() { be1.FlipLogPsiBatch(cb, flips, nil, delta) })
	cache := m.NewFlipCache(cb.Row(0))
	scalar, _ := timeNs(slice, func() {
		for k := 0; k < B; k++ {
			cache.Reset(cb.Row(k))
			for _, bit := range flips {
				out[k] = cache.Delta(bit)
			}
		}
	})
	res.add("nn.flip_batched_over_scalar", scalar/batched, "ratio")
	G := core.GradSlabRows
	if G > B {
		G = B
	}
	slabBits := nn.ConfigBatch{N: G, Sites: n, Bits: bits.Bits[:G*n]}
	ows := tensor.NewBatch(G, d)
	probe("nn.grad_ns_row", "ns", float64(G), func() { be.GradLogPsiBatch(slabBits, ows) })
	anc := m.NewBatchAncestralSampler()
	u := make([]float64, B*n)
	r.FillUniform(u, 0, 1)
	drawn := nn.ConfigBatch{N: B, Sites: n, Bits: make([]int, B*n)}
	probe("nn.sample_ns_row", "ns", float64(B), func() { anc.Sample(drawn, u, W) })
	probe("nn.prewarm_ns", "ns", 1, func() { nn.InvalidateParams(m); nn.Prewarm(m) })
	var ckpt bytes.Buffer
	saveNS, _ := timeNs(slice, func() {
		ckpt.Reset()
		if err := nn.SaveWavefunction(&ckpt, m); err != nil {
			res.fail("checkpoint save: %v", err)
		}
	})
	res.add("nn.ckpt_bytes", float64(ckpt.Len()), "B")
	res.add("nn.ckpt_save_ms", saveNS/1e6, "ms")
	loadNS, _ := timeNs(slice, func() {
		if _, err := nn.LoadWavefunction(bytes.NewReader(ckpt.Bytes())); err != nil {
			res.fail("checkpoint load: %v", err)
		}
	})
	res.add("nn.ckpt_load_ms", loadNS/1e6, "ms")

	// sampler: exact ancestral sampling of B rows, and the MCMC contrast the
	// paper replaces (RBM, default chains and burn-in; no workload uses it).
	smp := p.newSampler(m, W, r.Split())
	sb := sampler.NewBatch(B, n)
	probe("sampler.auto_ns_sample", "ns", float64(B), func() { smp.Sample(sb) })
	before := smp.Cost().ForwardPasses
	smp.Sample(sb)
	res.add("sampler.forward_passes_per_step", float64(smp.Cost().ForwardPasses-before), "count")
	rbm := nn.NewRBM(n, n, r.Split())
	mcmc := sampler.NewMCMC(rbm, sampler.MCMCConfig{}, r.Split())
	probe("sampler.mcmc_ns_sample", "ns", float64(B), func() { mcmc.Sample(sb) })

	// hamiltonian: the diagonal term of every row.
	probe("hamiltonian.diag_ns_row", "ns", float64(B), func() {
		for k := 0; k < B; k++ {
			out[k] = p.ham.Diagonal(bits.Row(k))
		}
	})

	// core: the fixed-block weighted row sum over one gradient slab.
	be.GradLogPsiBatch(slabBits, ows)
	grad, wts := tensor.NewVector(d), make([]float64, G)
	r.FillNorm(wts, 1)
	parts := tensor.NewBatch(core.GradBlocks(G), d)
	probe("core.add_weighted_rows_ns", "ns", 1, func() { core.AddWeightedRows(grad, ows, wts, parts, W) })

	// optimizer: one update of d parameters, and one Fisher-vector product.
	opt, params := p.newOptimizer(), m.Params().Clone()
	r.FillNorm(grad, 1e-3)
	probe("optimizer.step_ns", "ns", 1, func() { opt.Step(params, grad) })
	rows := B
	if rows*d*8 > fisherMaxBytes {
		rows = G
	}
	fows := tensor.NewBatch(rows, d)
	for lo := 0; lo < rows; lo += G {
		hi := min(lo+G, rows)
		be.GradLogPsiBatch(nn.ConfigBatch{N: hi - lo, Sites: n, Bits: bits.Bits[lo*n : hi*n]},
			&tensor.Batch{N: hi - lo, Dim: d, Data: fows.Data[lo*d : hi*d]})
	}
	fisher := optimizer.NewBatchFisher(fows, 1e-3, W)
	v, fout := tensor.NewVector(d), tensor.NewVector(d)
	r.FillNorm(v, 1)
	probe("optimizer.fisher_apply_ns_row", "ns", float64(rows), func() { fisher.ApplyDot(v, fout) })

	// parallel: dispatching an empty body to two workers.
	probe("parallel.for_overhead_ns", "ns", 1, func() { parallel.For(2, two(), func(lo, hi int) {}) })

	// comm: a two-rank ring all-reduce of the SR payload (d+1 doubles),
	// blocking and non-blocking. Rank 1 runs on its own goroutine and is
	// released once per call; zeros stay zeros however often they are summed.
	group := comm.NewGroup(2)
	c0, c1 := group.Rank(0), group.Rank(1)
	x0, x1 := make([]float64, d+1), make([]float64, d+1)
	peer := func(collective func(c *comm.Comm, x []float64) error) (call func(), stop func()) {
		release, done := make(chan struct{}), make(chan struct{})
		var peerErr error // written by rank 1's goroutine, read after done closes
		go func() {
			defer close(done)
			for range release {
				if err := collective(c1, x1); err != nil && peerErr == nil {
					peerErr = err
				}
			}
		}()
		call = func() {
			release <- struct{}{}
			if err := collective(c0, x0); err != nil {
				res.fail("comm probe rank 0: %v", err)
			}
		}
		return call, func() {
			close(release)
			<-done
			if peerErr != nil {
				res.fail("comm probe rank 1: %v", peerErr)
			}
		}
	}
	call, stop := peer(func(c *comm.Comm, x []float64) error { return c.AllReduceSum(x) })
	probe("comm.allreduce_ns", "ns", 1, call)
	stop()
	call, stop = peer(func(c *comm.Comm, x []float64) error { return c.IAllReduceSum(x).Wait() })
	probe("comm.iallreduce_ns", "ns", 1, call)
	stop()
}

// workerRatio times one operation of the workload built at 1 worker and at
// two() workers and returns t(2)/t(1): below 1, fanning out pays.
func (p *problem) workerRatio(cfg runCfg, build func(workers int) func()) float64 {
	t1, _ := timeNs(cfg.window(0.06), build(1))
	t2, _ := timeNs(cfg.window(0.06), build(two()))
	return t2 / t1
}
