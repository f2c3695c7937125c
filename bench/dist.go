package main

import (
	"runtime"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
)

// distRun is a dist.Trainer with the iteration number of its last Step and
// the energy of its first.
type distRun struct {
	tr      *dist.Trainer
	iter    int
	initial float64
}

// newDist builds an L-replica trainer at the workload's fixed global batch
// and runs the warm-up steps: one call is one set-up. Samplers keep one
// worker each whatever the replica's Workers, because sampler workers own
// RNG sub-streams; replica workers never change a bit.
func (p *problem) newDist(L, workers int, solver optimizer.SolverKind) (*distRun, error) {
	streams := p.samplerStreams(L)
	reps := make([]dist.Replica, L)
	for r := range reps {
		m := p.newModel()
		reps[r] = dist.Replica{Model: m, Smp: p.newSampler(m, 1, streams[r]),
			Opt: p.newOptimizer(), SR: p.newSR(solver), Workers: workers}
	}
	tr, err := dist.New(p.ham, reps, p.batch/L)
	if err != nil {
		return nil, err
	}
	d := &distRun{tr: tr}
	for i := 0; i < p.warm; i++ {
		st, err := d.step()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d.initial = st.Energy
		}
	}
	return d, nil
}

func (d *distRun) step() (core.IterStats, error) {
	d.iter++
	return d.tr.Step(d.iter)
}

// counters is a snapshot of every cumulative counter a dist.Trainer keeps.
type counters struct {
	timings       dist.Timings
	bytes, msgs   int64
	sync, async   int64
	fisherApplies int64
}

func (d *distRun) counters() counters {
	c := counters{timings: d.tr.Timings(), fisherApplies: d.tr.FisherApplies()}
	c.bytes, c.msgs = d.tr.Traffic()
	c.sync, c.async = d.tr.Collectives()
	return c
}

// checkHealthy asserts the invariants a finished dist run must hold:
// replicas bit-identical, every rank on the same collective schedule.
func (res *result) checkHealthy(what string, d *distRun) {
	err := d.tr.CheckConsistent()
	res.check(err == nil, "%s: replicas diverged: %v", what, err)
	err = d.tr.CollectivesBalanced()
	res.check(err == nil, "%s: %v", what, err)
}

// checkSerialEqual asserts that the L=1 distributed curve equals the serial
// core.Trainer SR curve on the same seed, step for step, with ==.
func (res *result) checkSerialEqual(serial, l1 []core.IterStats) {
	n := min(len(serial), len(l1))
	for i := 0; i < n; i++ {
		res.check(serial[i] == l1[i], "dist L=1 step %d: %+v != serial %+v", i+1, l1[i], serial[i])
	}
}

// measureDist drives one instance of dist_tim_sr untraced. The gated metrics
// come from L=2 at the fixed global batch; the first instance also checks
// that L=1 reproduces the serial trainer.
func measureDist(p *problem, cfg runCfg, res *result, window time.Duration) (measured, error) {
	if p.instance == 0 {
		serialTr, _ := p.newTrainer(1)
		serial, _ := timedSteps(0, cfg.refSteps(), func(int64) (core.IterStats, error) { return serialTr.Step(), nil })
		l1, err := p.newDist(1, 1, optimizer.SolverCG)
		if err != nil {
			return measured{}, err
		}
		a, err := timedSteps(0, cfg.refSteps(), func(int64) (core.IterStats, error) { return l1.step() })
		if err != nil {
			return measured{}, err
		}
		res.checkSerialEqual(serial.curve, a.curve)
		res.checkHealthy("L=1", l1)
	}
	t0 := time.Now()
	l2, err := p.newDist(two(), 1, optimizer.SolverCG)
	if err != nil {
		return measured{}, err
	}
	m := measured{setupS: time.Since(t0).Seconds()}
	if window <= 0 {
		return m, nil
	}
	if err := p.runSettle(l2.step); err != nil {
		return m, err
	}
	b, err := timedSteps(window, 1, func(int64) (core.IterStats, error) { return l2.step() })
	if err != nil {
		return m, err
	}
	res.checkCurve(cfg, b.curve, l2.initial)
	res.checkHealthy("L=2", l2)
	m.startMS, m.opMS, m.wall = b.startMS, b.stepMS, b.wall
	return m, nil
}

// traceDist is the traced run of dist_tim_sr: L=1 (the strong-scaling
// baseline and the curve that must equal the serial trainer's), then L=2. dist.Trainer's step cannot be
// unrolled from outside the package, so its phases come from Timings() and
// its counters from Traffic()/Collectives()/FisherApplies(); a span wraps
// each Step.
func traceDist(p *problem, cfg runCfg, res *result) error {
	p10 := func(run stepRun) float64 { return percentile(sorted(run.stepMS), 0.1) }
	n := cfg.hashSteps()

	// Serial core.Trainer + SR on the same problem: the curve phase A must
	// equal, the base of l1_over_core, and the source of the core.* phases.
	serialTr, _ := p.newTrainer(1)
	warmT := serialTr.Timings()
	serial, _ := timedSteps(cfg.window(0.1), n, func(int64) (core.IterStats, error) { return serialTr.Step(), nil })
	t := serialTr.Timings()
	per := float64(len(serial.curve))
	res.add("core.sample_ms", ms(t.Sample-warmT.Sample)/per, "ms")
	res.add("core.energy_ms", ms(t.Energy-warmT.Energy)/per, "ms")
	res.add("core.grad_ms", ms(t.Grad-warmT.Grad)/per, "ms")
	res.add("core.update_ms", ms(t.Update-warmT.Update)/per, "ms")
	// Under SR the serial trainer's update phase is the Fisher-CG solve
	// plus one SGD step of d parameters (optimizer.step_ns).
	res.add("optimizer.sr_precond_ms", ms(t.Update-warmT.Update)/per, "ms")
	serialAsc := sorted(serial.stepMS)
	res.addDist("core.step_ms_p50", percentile(serialAsc, 0.5), "ms", serialAsc)
	res.addDist("core.step_ms_p90", percentile(serialAsc, 0.9), "ms", serialAsc)
	res.add("core.step_self_share", 1-ms(t.Total()-warmT.Total())/per/(ms(serial.wall)/per), "ratio")

	l1, err := p.newDist(1, 1, optimizer.SolverCG)
	if err != nil {
		return err
	}
	a, err := timedSteps(cfg.window(0.15), n, func(int64) (core.IterStats, error) { return l1.step() })
	if err != nil {
		return err
	}
	res.checkSerialEqual(serial.curve, a.curve)
	res.checkHealthy("L=1", l1)

	l2, err := p.newDist(two(), 1, optimizer.SolverCG)
	if err != nil {
		return err
	}
	if err := p.runSettle(l2.step); err != nil {
		return err
	}
	// Every second step is wrapped in a span, so the traced and the untraced
	// steps see the same training states and the same noise. The exact
	// per-step counters cover the first n steps after settling, so they
	// repeat for one seed however many steps the clock allows later.
	tr := newTracer()
	sb := tr.buf()
	c0 := l2.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		cn               counters
		plainMS, spanned []float64
	)
	b, err := timedSteps(cfg.window(0.4), 2*n, func(op int64) (core.IterStats, error) {
		buf, into := sb, &spanned
		if op%2 == 1 {
			buf, into = nil, &plainMS
		}
		t0 := time.Now()
		s := buf.begin("dist.step", op, 0)
		st, err := l2.step()
		buf.end(s)
		*into = append(*into, ms(time.Since(t0)))
		if op == int64(n) {
			cn = l2.counters()
		}
		return st, err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	c1 := l2.counters()
	spans := tr.all()
	energyFinal := res.checkCurve(cfg, b.curve, l2.initial)
	res.checkHealthy("L=2", l2)

	steps := float64(len(b.curve))
	d0, d1 := c0.timings, c1.timings
	res.add("dist.sample_ms", ms(d1.Sample-d0.Sample)/steps, "ms")
	res.add("dist.energy_ms", ms(d1.Energy-d0.Energy)/steps, "ms")
	res.add("dist.grad_ms", ms(d1.Grad-d0.Grad)/steps, "ms")
	res.add("dist.sync_ms", ms(d1.Sync-d0.Sync)/steps, "ms")
	res.add("dist.precond_ms", ms(d1.Precond-d0.Precond)/steps, "ms")
	res.add("dist.update_ms", ms(d1.Update-d0.Update)/steps, "ms")
	fn := float64(n)
	res.add("dist.fisher_applies_per_step", float64(cn.fisherApplies-c0.fisherApplies)/fn, "count")
	res.add("comm.bytes_per_step", float64(cn.bytes-c0.bytes)/fn, "B")
	res.add("comm.msgs_per_step", float64(cn.msgs-c0.msgs)/fn, "count")
	res.add("comm.collectives_sync_per_step", float64(cn.sync-c0.sync)/fn, "count")
	res.add("comm.collectives_async_per_step", float64(cn.async-c0.async)/fn, "count")
	var cgIters float64
	for _, st := range b.curve[:n] {
		cgIters += float64(st.SRIters) / fn
	}
	res.add("optimizer.cg_iters_per_step", cgIters, "count")
	res.add("core.curve_hash", curveHash(energies(b.curve, n)), "hash")
	res.add("core.energy_final", energyFinal, "energy")

	l1Asc := sorted(a.stepMS)
	res.addDist("dist.step_ms_p10_l1", percentile(l1Asc, 0.1), "ms", l1Asc)
	res.add("dist.scaling_eff", p10(a)/(float64(two())*p10(b)), "ratio")
	res.add("dist.l1_over_core", p10(a)/p10(serial), "ratio")
	piped, err := p.newDist(two(), 1, optimizer.SolverPipelined)
	if err != nil {
		return err
	}
	pp, err := timedSteps(cfg.window(0.08), n, func(int64) (core.IterStats, error) { return piped.step() })
	if err != nil {
		return err
	}
	res.checkHealthy("L=2 pipelined", piped)
	res.add("dist.pipelined_over_cg", p10(pp)/p10(b), "ratio")

	res.add("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(b.curve)), "KiB")
	res.add("trace.overhead", percentile(sorted(spanned), 0.1)/percentile(sorted(plainMS), 0.1), "ratio")
	if err := cfg.writeSpans(res, spans); err != nil {
		return err
	}

	probeLayers(p, cfg, res)
	var buildErr error
	ratio := p.workerRatio(cfg, func(w int) func() {
		d, err := p.newDist(two(), w, optimizer.SolverCG)
		if err != nil {
			buildErr = err
			return func() {}
		}
		return func() {
			if _, err := d.step(); err != nil && buildErr == nil {
				buildErr = err
			}
		}
	})
	if buildErr != nil {
		return buildErr
	}
	res.add("parallel.w2_over_w1", ratio, "ratio")
	res.notEntered("core.grad_eval_ms", "core.grad_reduce_ms", "core.spans_over_timings", "serve.")
	return nil
}
