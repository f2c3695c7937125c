package main

import (
	"math"
	"runtime"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// samplerStreams returns the L sampler streams of a run. The serial trainer
// uses stream 0 of a 1-way split, which is exactly what a dist trainer at
// L=1 draws from, so the two trajectories can be compared with ==.
func (p *problem) samplerStreams(L int) []*rng.Rand {
	return rng.New(p.stream(streamSampler)).SplitN(L)
}

// newTrainer builds the serial trainer for the problem and runs the warm-up
// steps: one call is one set-up. initial is the energy of the first warm-up
// step, where training starts from.
func (p *problem) newTrainer(workers int) (tr *core.Trainer, initial float64) {
	m := p.newModel()
	tr = core.New(p.ham, m, p.newSampler(m, workers, p.samplerStreams(1)[0]), p.newOptimizer(),
		core.Config{BatchSize: p.batch, Workers: workers, SR: p.newSR(optimizer.SolverCG)})
	for i := 0; i < p.warm; i++ {
		if st := tr.Step(); i == 0 {
			initial = st.Energy
		}
	}
	return tr, initial
}

// runSettle runs the workload's settle steps untimed. The cost of a step
// depends on the state training has reached (an untrained MADE on TIM n=32
// takes 82 ms a step, 63 ms forty steps later, because the ReLU and bit
// sparsity the GEMM kernels skip on changes as it trains), so every run
// first walks the same fixed number of steps to where that cost has
// levelled off. These steps are not set-up: set-up is what a user pays
// before the first step, and is timed without them.
func (p *problem) runSettle(step func() (core.IterStats, error)) error {
	for i := 0; i < p.settle; i++ {
		if _, err := step(); err != nil {
			return err
		}
	}
	return nil
}

// stepRun is a sequence of timed training steps.
type stepRun struct {
	curve   []core.IterStats
	startMS []float64 // when each step began, from the start of the run
	stepMS  []float64
	wall    time.Duration
}

// timedSteps calls step until budget has elapsed and at least minSteps ran.
func timedSteps(budget time.Duration, minSteps int, step func(op int64) (core.IterStats, error)) (stepRun, error) {
	var run stepRun
	start := time.Now()
	for op := int64(1); len(run.curve) < minSteps || time.Since(start) < budget; op++ {
		t0 := time.Now()
		st, err := step(op)
		run.startMS, run.stepMS = append(run.startMS, ms(t0.Sub(start))), append(run.stepMS, ms(time.Since(t0)))
		if err != nil {
			return run, err
		}
		run.curve = append(run.curve, st)
	}
	run.wall = time.Since(start)
	return run, nil
}

// energyFinalSteps is the tail of the curve energy_final averages over.
const energyFinalSteps = 10

// checkCurve counts every step as an attempted operation, fails the
// non-finite ones, and checks that training trained: the mean energy of the
// last ten steps lies below the energy training started from. (Under SR
// the energy is near its floor after the settle steps and wanders there, so
// the first timed step is no fair reference.) At smoke scale a run trains
// for a handful of steps on a 64-row batch, too few to tell, and the check
// is skipped.
func (r *result) checkCurve(cfg runCfg, curve []core.IterStats, initial float64) (energyFinal float64) {
	for _, st := range curve {
		r.check(!math.IsNaN(st.Energy) && !math.IsInf(st.Energy, 0) && !math.IsNaN(st.Std) && !math.IsInf(st.Std, 0),
			"step %d: non-finite energy %v or std %v", st.Iter, st.Energy, st.Std)
	}
	tail := curve
	if len(tail) > energyFinalSteps {
		tail = tail[len(tail)-energyFinalSteps:]
	}
	for _, st := range tail {
		energyFinal += st.Energy / float64(len(tail))
	}
	if !cfg.smoke {
		r.check(energyFinal < initial, "energy_final %v not below the initial energy %v", energyFinal, initial)
	}
	return energyFinal
}

// curveHash folds the bit patterns of the first steps' energies into 52
// bits (exact in a float64): it moves only when arithmetic changes.
func curveHash(values []float64) float64 {
	h := uint64(14695981039346656037)
	for _, v := range values {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return float64(h & (1<<52 - 1))
}

// energies extracts the first n energies of a curve.
func energies(curve []core.IterStats, n int) []float64 {
	if n > len(curve) {
		n = len(curve)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = curve[i].Energy
	}
	return out
}

// measureCore drives one instance of a train_* workload untraced.
func measureCore(p *problem, cfg runCfg, res *result, window time.Duration) (measured, error) {
	t0 := time.Now()
	tr, initial := p.newTrainer(p.workers)
	m := measured{setupS: time.Since(t0).Seconds()}
	if window <= 0 {
		return m, nil
	}
	step := func() (core.IterStats, error) { return tr.Step(), nil }
	if err := p.runSettle(step); err != nil {
		return m, err
	}
	run, _ := timedSteps(window, 1, func(int64) (core.IterStats, error) { return step() })
	res.checkCurve(cfg, run.curve, initial)
	m.startMS, m.opMS, m.wall = run.startMS, run.stepMS, run.wall
	return m, nil
}

// unrolled is core.Trainer.Step spelled out with the same public calls in
// the same order, so spans can sit between them. It adopts a trainer's
// model, sampler and optimizer and carries its trajectory on; traceCore
// asserts that the two produce the same trajectory bit for bit, so the
// spans measure the same program.
type unrolled struct {
	p       *problem
	m       core.Model
	smp     sampler.Sampler
	opt     optimizer.Optimizer
	bev     *core.BatchedEval
	batch   *sampler.Batch
	locals  []float64
	wbuf    []float64
	grad    tensor.Vector
	gparts  *tensor.Batch
	slab    *tensor.Batch
	workers int
	iter    int
}

// unroll returns an unrolled stepper on tr's model, sampler and optimizer;
// tr has run iter steps. Either may take the next step of the shared
// trajectory.
func (p *problem) unroll(tr *core.Trainer, iter int) *unrolled {
	d, workers := tr.Model.NumParams(), tr.Config().Workers
	return &unrolled{p: p, m: tr.Model, smp: tr.Smp, opt: tr.Opt, workers: workers, iter: iter,
		bev:    core.NewBatchedEval(tr.Model, core.EvalAuto, workers),
		batch:  sampler.NewBatch(p.batch, p.n),
		locals: make([]float64, p.batch),
		wbuf:   make([]float64, p.batch),
		grad:   tensor.NewVector(d),
		gparts: tensor.NewBatch(core.GradBlocks(p.batch), d),
		slab:   tensor.NewBatch(core.GradSlabRows, d),
	}
}

func (u *unrolled) step(sb *spanBuf, op int64) core.IterStats {
	u.iter++
	root := sb.begin("core.step", op, 0)
	nn.Prewarm(u.m)

	s := sb.begin("core.sample", op, root)
	u.smp.Sample(u.batch)
	sb.end(s)

	s = sb.begin("core.energy", op, root)
	u.bev.LocalEnergies(u.p.ham, u.batch, u.workers, u.locals)
	mean, std := stats.MeanStd(u.locals)
	sb.end(s)

	g := sb.begin("core.grad", op, root)
	bs, d := u.batch.N, u.m.NumParams()
	for k := 0; k < bs; k++ {
		u.wbuf[k] = 2 * (u.locals[k] - mean) / float64(bs)
	}
	u.grad.Fill(0)
	for lo := 0; lo < bs; lo += core.GradSlabRows {
		hi := lo + core.GradSlabRows
		if hi > bs {
			hi = bs
		}
		rows := &sampler.Batch{N: hi - lo, Sites: u.batch.Sites, Bits: u.batch.Bits[lo*u.batch.Sites : hi*u.batch.Sites]}
		ows := &tensor.Batch{N: hi - lo, Dim: d, Data: u.slab.Data[:(hi-lo)*d]}
		s = sb.begin("nn.grad_batch", op, g)
		u.bev.FillOws(rows, ows)
		sb.end(s)
		s = sb.begin("core.add_weighted_rows", op, g)
		core.AddWeightedRows(u.grad, ows, u.wbuf[lo:hi], u.gparts, u.workers)
		sb.end(s)
	}
	sb.end(g)

	s = sb.begin("core.update", op, root)
	u.opt.Step(u.m.Params(), u.grad)
	nn.InvalidateParams(u.m)
	sb.end(s)

	sb.end(root)
	return core.IterStats{Iter: u.iter, Batch: bs, Energy: mean, Std: std}
}

// traceCore is the traced run of a train_* workload. While one trainer
// settles, an unrolled twin walks its first steps beside it to prove the
// unrolled step is the same program. Then steps alternate between
// Trainer.Step (untraced) and the unrolled step with spans: both work on the
// same model, sampler and optimizer, so there is one trajectory, and the two
// timings see the same training states and the same noise. The layer probes
// follow.
func traceCore(p *problem, cfg runCfg, res *result) error {
	tr, initial := p.newTrainer(p.workers)
	twin, _ := p.newTrainer(p.workers)
	u := p.unroll(twin, p.warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < p.settle; i++ {
		a := tr.Step()
		if i < cfg.refSteps() {
			b := u.step(nil, 0)
			res.check(a == b, "unrolled step %d: %+v != Trainer.Step %+v", i+1, b, a)
		}
	}
	runtime.ReadMemStats(&m1)
	res.add("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(p.settle+cfg.refSteps()), "KiB")

	u = p.unroll(tr, p.warm+p.settle)
	t := newTracer()
	sb := t.buf()
	timingsWarm := tr.Timings()
	var plainMS, tracedMS []float64
	run, _ := timedSteps(cfg.window(0.5), 2*cfg.hashSteps(), func(op int64) (core.IterStats, error) {
		t0 := time.Now()
		if op%2 == 1 {
			st := tr.Step()
			plainMS = append(plainMS, ms(time.Since(t0)))
			return st, nil
		}
		st := u.step(sb, op)
		tracedMS = append(tracedMS, ms(time.Since(t0)))
		return st, nil
	})
	timings := tr.Timings()
	spans := t.all()
	energyFinal := res.checkCurve(cfg, run.curve, initial)

	phase := func(name string) float64 { return median(perOpMS(spans, name)) }
	sample, energy, grad, update := phase("core.sample"), phase("core.energy"), phase("core.grad"), phase("core.update")
	res.add("core.sample_ms", sample, "ms")
	res.add("core.energy_ms", energy, "ms")
	res.add("core.grad_ms", grad, "ms")
	res.add("core.update_ms", update, "ms")
	res.add("core.grad_eval_ms", phase("nn.grad_batch"), "ms")
	res.add("core.grad_reduce_ms", phase("core.add_weighted_rows"), "ms")
	stepAsc := sorted(perOpMS(spans, "core.step"))
	res.add("core.step_self_share", median(selfMS(spans, "core.step"))/percentile(stepAsc, 0.5), "ratio")
	res.addDist("core.step_ms_p50", percentile(stepAsc, 0.5), "ms", stepAsc)
	res.addDist("core.step_ms_p90", percentile(stepAsc, 0.9), "ms", stepAsc)
	res.add("core.curve_hash", curveHash(energies(run.curve, cfg.hashSteps())), "hash")
	res.add("core.energy_final", energyFinal, "energy")
	// Trainer.Timings() of the untraced steps against the span phases of
	// the traced ones: the same four phases measured two ways.
	perStep := ms(timings.Total()-timingsWarm.Total()) / float64(len(plainMS))
	res.add("core.spans_over_timings", (sample+energy+grad+update)/perStep, "ratio")
	res.add("trace.overhead", percentile(sorted(tracedMS), 0.1)/percentile(sorted(plainMS), 0.1), "ratio")
	if err := cfg.writeSpans(res, spans); err != nil {
		return err
	}

	probeLayers(p, cfg, res)
	res.add("parallel.w2_over_w1", p.workerRatio(cfg, func(w int) func() {
		t, _ := p.newTrainer(w)
		return func() { t.Step() }
	}), "ratio")
	res.notEntered("optimizer.sr_precond_ms", "optimizer.cg_iters_per_step",
		"comm.bytes", "comm.msgs", "comm.collectives", "dist.", "serve.")
	return nil
}
