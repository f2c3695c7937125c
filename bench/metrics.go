package main

import (
	"sort"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json: TestBenchmarkJSON keeps
// this table and that file equal, name for name and unit for unit.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics, printed by the untraced run of every
// workload. An operation is one training step (train_*, dist_tim_sr at
// L=2) or one served request (serve_*).
var endToEnd = []metricDef{
	{name: "op_ms_p10", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the ungated metrics, printed by the traced run of every
// workload. A kernel probe (tensor, nn, sampler, hamiltonian, optimizer
// step, parallel, comm all-reduce) is timed at the shape the workload
// issues; an attribution metric (core, dist, serve phases and counters) is
// what the workload itself spent in that layer per operation, and reads 0
// on a workload that never enters the layer.
var perLayer = []metricDef{
	{name: "tensor.matmul_ns", unit: "ns", better: "lower"},
	{name: "tensor.matmul_relu_ns", unit: "ns", better: "lower"},
	{name: "tensor.matmul_t_ns", unit: "ns", better: "lower"},
	{name: "tensor.matmul_cols_ns", unit: "ns", better: "lower"},
	{name: "tensor.gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.bytes_per_flop", unit: "B/FLOP", better: "lower"},

	{name: "nn.logpsi_ns_row", unit: "ns", better: "lower"},
	{name: "nn.flip_ns_row", unit: "ns", better: "lower"},
	{name: "nn.flip_batched_over_scalar", unit: "ratio", better: "higher"},
	{name: "nn.grad_ns_row", unit: "ns", better: "lower"},
	{name: "nn.sample_ns_row", unit: "ns", better: "lower"},
	{name: "nn.prewarm_ns", unit: "ns", better: "lower"},
	{name: "nn.ckpt_bytes", unit: "B", better: "lower"},
	{name: "nn.ckpt_save_ms", unit: "ms", better: "lower"},
	{name: "nn.ckpt_load_ms", unit: "ms", better: "lower"},

	{name: "sampler.auto_ns_sample", unit: "ns", better: "lower"},
	{name: "sampler.forward_passes_per_step", unit: "count", better: "lower"},
	{name: "sampler.mcmc_ns_sample", unit: "ns", better: "lower"},

	{name: "hamiltonian.diag_ns_row", unit: "ns", better: "lower"},

	{name: "core.sample_ms", unit: "ms", better: "lower"},
	{name: "core.energy_ms", unit: "ms", better: "lower"},
	{name: "core.grad_ms", unit: "ms", better: "lower"},
	{name: "core.update_ms", unit: "ms", better: "lower"},
	{name: "core.grad_eval_ms", unit: "ms", better: "lower"},
	{name: "core.grad_reduce_ms", unit: "ms", better: "lower"},
	{name: "core.add_weighted_rows_ns", unit: "ns", better: "lower"},
	{name: "core.step_self_share", unit: "ratio", better: "lower"},
	{name: "core.step_ms_p50", unit: "ms", better: "lower"},
	{name: "core.step_ms_p90", unit: "ms", better: "lower"},
	{name: "core.curve_hash", unit: "hash", better: "lower"},
	{name: "core.energy_final", unit: "energy", better: "lower"},
	{name: "core.spans_over_timings", unit: "ratio", better: "lower"},

	{name: "optimizer.step_ns", unit: "ns", better: "lower"},
	{name: "optimizer.fisher_apply_ns_row", unit: "ns", better: "lower"},
	{name: "optimizer.sr_precond_ms", unit: "ms", better: "lower"},
	{name: "optimizer.cg_iters_per_step", unit: "count", better: "lower"},

	{name: "parallel.for_overhead_ns", unit: "ns", better: "lower"},
	{name: "parallel.w2_over_w1", unit: "ratio", better: "lower"},

	{name: "comm.allreduce_ns", unit: "ns", better: "lower"},
	{name: "comm.iallreduce_ns", unit: "ns", better: "lower"},
	{name: "comm.bytes_per_step", unit: "B", better: "lower"},
	{name: "comm.msgs_per_step", unit: "count", better: "lower"},
	{name: "comm.collectives_sync_per_step", unit: "count", better: "lower"},
	{name: "comm.collectives_async_per_step", unit: "count", better: "lower"},

	{name: "dist.sample_ms", unit: "ms", better: "lower"},
	{name: "dist.energy_ms", unit: "ms", better: "lower"},
	{name: "dist.grad_ms", unit: "ms", better: "lower"},
	{name: "dist.sync_ms", unit: "ms", better: "lower"},
	{name: "dist.precond_ms", unit: "ms", better: "lower"},
	{name: "dist.update_ms", unit: "ms", better: "lower"},
	{name: "dist.fisher_applies_per_step", unit: "count", better: "lower"},
	{name: "dist.step_ms_p10_l1", unit: "ms", better: "lower"},
	{name: "dist.scaling_eff", unit: "ratio", better: "higher"},
	{name: "dist.l1_over_core", unit: "ratio", better: "lower"},
	{name: "dist.pipelined_over_cg", unit: "ratio", better: "lower"},

	{name: "serve.direct_eval_ms", unit: "ms", better: "lower"},
	{name: "serve.inproc_ms", unit: "ms", better: "lower"},
	{name: "serve.http_ms", unit: "ms", better: "lower"},
	{name: "serve.coalescer_self_ms", unit: "ms", better: "lower"},
	{name: "serve.http_self_ms", unit: "ms", better: "lower"},
	{name: "serve.body_bytes", unit: "B", better: "lower"},
	{name: "serve.rows_per_batch", unit: "count", better: "higher"},
	{name: "serve.batches", unit: "count", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.canceled", unit: "count", better: "lower"},
	{name: "serve.p50_ms", unit: "ms", better: "lower"},
	{name: "serve.p95_ms", unit: "ms", better: "lower"},
	{name: "serve.p99_ms", unit: "ms", better: "lower"},
	{name: "serve.swap_ms", unit: "ms", better: "lower"},
	{name: "serve.sample_ms", unit: "ms", better: "lower"},
	{name: "serve.open_p50_ms.r2k", unit: "ms", better: "lower"},
	{name: "serve.open_p95_ms.r2k", unit: "ms", better: "lower"},
	{name: "serve.open_p50_ms.r16k", unit: "ms", better: "lower"},
	{name: "serve.open_p95_ms.r16k", unit: "ms", better: "lower"},
	{name: "serve.open_late_p99_ms", unit: "ms", better: "lower"},

	{name: "runtime.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// notEntered records 0 for every per-layer metric under the given name
// prefixes that the run has not emitted: the workload never enters that
// layer, so it spent nothing there.
func (r *result) notEntered(prefixes ...string) {
	have := map[string]bool{}
	for _, m := range r.Metrics {
		have[m.Name] = true
	}
	for _, d := range perLayer {
		if have[d.name] {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.add(d.name, 0, d.unit)
				break
			}
		}
	}
}

// inTableOrder sorts a run's metrics into the order of the tables above, so
// every workload prints the same rows in the same places.
func (r *result) inTableOrder() {
	rank := map[string]int{}
	for i, d := range endToEnd {
		rank[d.name] = i
	}
	for i, d := range perLayer {
		rank[d.name] = len(endToEnd) + i
	}
	sort.SliceStable(r.Metrics, func(i, j int) bool { return rank[r.Metrics[i].Name] < rank[r.Metrics[j].Name] })
}
