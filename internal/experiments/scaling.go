package experiments

import (
	"fmt"
	"io"

	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
)

// fig3MBS maps the paper's Figure 3 dimensions to their per-GPU batch
// (chosen to saturate GPU memory; the device model reproduces the ladder).
func fig3MBS(n int) int { return v100().MaxBatchTIM(n) }

// figure3 evaluates the weak-scaling panels of the paper's Figure 3:
// normalized training time across GPU configurations for the large TIM
// dimensions, from the cluster model (compute + hierarchical ring
// all-reduce). The numbers should hover near 1.0 — near-optimal weak
// scaling.
func figure3(p Preset, out io.Writer, csvDir string) error {
	dims := []int{}
	for _, n := range p.BigDims {
		if n >= 1000 {
			dims = append(dims, n)
		}
	}
	if len(dims) == 0 {
		dims = []int{1000, 2000, 5000, 10000}
	}
	configs := paperConfigs()
	header := []string{"config", "GPUs"}
	for _, n := range dims {
		header = append(header, fmt.Sprintf("n=%d (mbs=%d)", n, fig3MBS(n)))
	}
	tbl := newTable(
		"Figure 3: normalized execution time (modeled cluster, 300 iters)", header...)

	perDim := make([][]weakScalingPoint, len(dims))
	for j, n := range dims {
		perDim[j] = weakScaling(configs, n, fig3MBS(n), 300)
	}
	for i, c := range configs {
		row := []any{fmt.Sprintf("%dx%d", c[0], c[1]), c[0] * c[1]}
		for j := range dims {
			row = append(row, fmt.Sprintf("%.4f", perDim[j][i].Normalized))
		}
		tbl.AddRow(row...)
	}
	if err := emit(out, csvDir, "fig3.csv", tbl); err != nil {
		return err
	}
	eff := newTable("Weak-scaling efficiency T(1x1)/T(max)", "n", "efficiency")
	for j, n := range dims {
		eff.AddRow(n, fmt.Sprintf("%.4f", efficiency(perDim[j])))
	}
	return emit(out, csvDir, "fig3_efficiency.csv", eff)
}

// buildDistTrainer assembles L identical replicas with independent sampler
// streams for a TIM instance. workers fans each replica's evaluation across
// that many goroutines (1 = the plain data-parallel scheme); srLambda > 0
// additionally enables distributed stochastic reconfiguration with a
// private SR clone per replica, solved by the given CG variant.
func buildDistTrainer(n, hsz, L, mbs, workers int, srLambda float64, solver optimizer.SolverKind, seed uint64) (*dist.Trainer, error) {
	tim := timInstance(n)
	streams := rng.New(seed).SplitN(L)
	var proto *optimizer.SR
	if srLambda > 0 {
		proto = optimizer.NewSR(srLambda)
		proto.Solver = solver
	}
	reps := make([]dist.Replica, L)
	for r := 0; r < L; r++ {
		m := nn.NewMADE(n, hsz, rng.New(seed+999)) // identical init everywhere
		var opt optimizer.Optimizer = optimizer.NewAdam(0.01)
		var sr *optimizer.SR
		if proto != nil {
			opt = optimizer.NewSGD(0.1) // the paper pairs SR with SGD
			sr = proto.Clone()
		}
		reps[r] = dist.Replica{
			Model:   m,
			Smp:     sampler.NewAutoBatched(m.NumSites(), m, 1, streams[r]),
			Opt:     opt,
			SR:      sr,
			Workers: workers,
		}
	}
	return dist.New(tim, reps, mbs)
}

// distSR evaluates the distributed stochastic-reconfiguration path: for a
// sweep of replica counts at fixed per-replica batch, it reports the
// converged energy, the mean CG iteration count of the Fisher solves, and
// the measured ring traffic per step — the communication cost the
// one-collective-per-CG-iteration packing keeps linear in the parameter
// count.
func distSR(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	tbl := newTable(
		fmt.Sprintf("Distributed SR: energy, CG iterations and traffic (mbs=%d, workers=2, preset %s)", p.MBS, p.Name),
		"n", "L", "energy", "mean CG iters", "last residual", "MB/step", "fisher collectives")
	for _, n := range dims {
		for _, L := range p.GPUCounts {
			tr, err := buildDistTrainer(n, hiddenMADE(n), L, p.MBS, 2, 1e-3, optimizer.SolverCG, uint64(80+L))
			if err != nil {
				return err
			}
			hist, err := tr.Train(p.Iters, nil)
			if err != nil {
				return err
			}
			var cg float64
			for _, s := range hist {
				cg += float64(s.SRIters)
			}
			cg /= float64(len(hist))
			bytes, _ := tr.Traffic()
			last := hist[len(hist)-1]
			tbl.AddRow(n, L, fmt.Sprintf("%.4f", last.Energy), fmt.Sprintf("%.1f", cg),
				fmt.Sprintf("%.2e", last.SRResidual),
				fmt.Sprintf("%.3f", float64(bytes)/float64(p.Iters)/1e6),
				tr.FisherApplies())
		}
	}
	return emit(out, csvDir, "distsr.csv", tbl)
}

// convergedEnergy trains the plain data-parallel MADE on the TIM instance
// of dimension n over L replicas at the preset's per-replica batch, and
// averages the final quarter of the energies to damp small-batch noise.
func convergedEnergy(p Preset, n, L int, seed uint64) (float64, error) {
	tr, err := buildDistTrainer(n, hiddenMADE(n), L, p.MBS, 1, 0, optimizer.SolverCG, seed)
	if err != nil {
		return 0, err
	}
	hist, err := tr.Train(p.Iters, nil)
	if err != nil {
		return 0, err
	}
	q := len(hist) / 4
	var e float64
	for _, s := range hist[len(hist)-q:] {
		e += s.Energy
	}
	return e / float64(q), nil
}

// figure4 reproduces the batch-size-vs-convergence result: with a fixed
// per-device batch (mbs=4), more devices mean a larger effective batch and
// a better converged energy, saturating for small problems. Runs are real
// distributed training with goroutine devices and ring all-reduce.
func figure4(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	header := []string{"n"}
	for _, L := range p.GPUCounts {
		header = append(header, fmt.Sprintf("L=%d (bs=%d)", L, L*p.MBS))
	}
	tbl := newTable(fmt.Sprintf(
		"Figure 4: normalized converged energy vs #GPUs (mbs=%d, preset %s)", p.MBS, p.Name),
		header...)
	raw := newTable("Figure 4 raw energies", header...)

	for _, n := range dims {
		energies := make([]float64, len(p.GPUCounts))
		for i, L := range p.GPUCounts {
			e, err := convergedEnergy(p, n, L, uint64(60+i))
			if err != nil {
				return err
			}
			energies[i] = e
		}
		rawRow := []any{n}
		for _, e := range energies {
			rawRow = append(rawRow, e)
		}
		raw.AddRow(rawRow...)
		norm := append([]float64(nil), energies...)
		stats.Normalize(norm)
		row := []any{n}
		for _, e := range norm {
			row = append(row, fmt.Sprintf("%.4f", e))
		}
		tbl.AddRow(row...)
	}
	if err := emit(out, csvDir, "fig4.csv", tbl); err != nil {
		return err
	}
	return emit(out, csvDir, "fig4_raw.csv", raw)
}

// table6 regenerates the appendix raw data: converged energy (real
// distributed runs at runnable dimensions) and modeled training time for
// every GPU configuration and dimension, at fixed mbs=4.
func table6(p Preset, out io.Writer, csvDir string) error {
	configs := paperConfigs()
	timeHeader := []string{"config", "GPUs"}
	for _, n := range p.BigDims {
		timeHeader = append(timeHeader, fmt.Sprintf("n=%d", n))
	}
	timeTbl := newTable(
		fmt.Sprintf("Table 6 (time side): modeled seconds, 300 iters, mbs=%d", p.MBS), timeHeader...)
	for _, c := range configs {
		topo := newTopology(c[0], c[1])
		row := []any{topo.String(), topo.GPUs()}
		for _, n := range p.BigDims {
			t := topo.TrainingTime(n, nn.HiddenMADE(n), p.MBS, n, 300)
			row = append(row, fmt.Sprintf("%.2f", t.Seconds()))
		}
		timeTbl.AddRow(row...)
	}
	if err := emit(out, csvDir, "table6_time.csv", timeTbl); err != nil {
		return err
	}

	// Energy side: real runs at runnable dimensions across L = GPUs.
	dims := realDims(p)
	energyHeader := []string{"GPUs"}
	for _, n := range dims {
		energyHeader = append(energyHeader, fmt.Sprintf("n=%d", n))
	}
	energyTbl := newTable(
		fmt.Sprintf("Table 6 (energy side): converged energy, real runs (preset %s)", p.Name),
		energyHeader...)
	for _, L := range p.GPUCounts {
		row := []any{L}
		for _, n := range dims {
			e, err := convergedEnergy(p, n, L, uint64(70+L))
			if err != nil {
				return err
			}
			row = append(row, e)
		}
		energyTbl.AddRow(row...)
	}
	return emit(out, csvDir, "table6_energy.csv", energyTbl)
}

// table7 regenerates the weak-scaling raw data at memory-saturating batch
// sizes: the per-GPU sample ladder (from the device memory model) and the
// modeled training time per configuration and dimension.
func table7(p Preset, out io.Writer, csvDir string) error {
	dev := v100()
	configs := paperConfigs()
	header := []string{"config", "GPUs"}
	for _, n := range p.BigDims {
		header = append(header, fmt.Sprintf("n=%d", n))
	}
	tbl := newTable("Table 7: modeled seconds, 300 iters, memory-saturating mbs", header...)
	ladder := []any{"samples/GPU", "-"}
	for _, n := range p.BigDims {
		ladder = append(ladder, fmt.Sprintf("%d", dev.MaxBatchTIM(n)))
	}
	tbl.AddRow(ladder...)
	for _, c := range configs {
		topo := newTopology(c[0], c[1])
		row := []any{topo.String(), topo.GPUs()}
		for _, n := range p.BigDims {
			t := topo.TrainingTime(n, nn.HiddenMADE(n), dev.MaxBatchTIM(n), n, 300)
			row = append(row, fmt.Sprintf("%.2f", t.Seconds()))
		}
		tbl.AddRow(row...)
	}
	return emit(out, csvDir, "table7.csv", tbl)
}
