package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"github.com/vqmc-scale/parvqmc/internal/cluster"
	"github.com/vqmc-scale/parvqmc/internal/device"
	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
	"github.com/vqmc-scale/parvqmc/internal/trace"
)

// fig3MBS maps the paper's Figure 3 dimensions to their per-GPU batch
// (chosen to saturate GPU memory; the device model reproduces the ladder).
func fig3MBS(n int) int { return device.V100().MaxBatchTIM(n) }

// Figure3 evaluates the weak-scaling panels of the paper's Figure 3:
// normalized training time across GPU configurations for the large TIM
// dimensions, from the cluster model (compute + hierarchical ring
// all-reduce). The numbers should hover near 1.0 — near-optimal weak
// scaling.
func Figure3(p Preset, out io.Writer, csvDir string) error {
	dims := []int{}
	for _, n := range p.BigDims {
		if n >= 1000 {
			dims = append(dims, n)
		}
	}
	if len(dims) == 0 {
		dims = []int{1000, 2000, 5000, 10000}
	}
	configs := cluster.PaperConfigs()
	header := []string{"config", "GPUs"}
	for _, n := range dims {
		header = append(header, fmt.Sprintf("n=%d (mbs=%d)", n, fig3MBS(n)))
	}
	tbl := trace.NewTable(
		"Figure 3: normalized execution time (modeled cluster, 300 iters)", header...)

	perDim := make([][]cluster.WeakScalingPoint, len(dims))
	for j, n := range dims {
		perDim[j] = cluster.WeakScaling(configs, n, fig3MBS(n), 300)
	}
	for i, c := range configs {
		row := []interface{}{fmt.Sprintf("%dx%d", c[0], c[1]), c[0] * c[1]}
		for j := range dims {
			row = append(row, fmt.Sprintf("%.4f", perDim[j][i].Normalized))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	eff := trace.NewTable("Weak-scaling efficiency T(1x1)/T(max)", "n", "efficiency")
	for j, n := range dims {
		eff.AddRow(n, fmt.Sprintf("%.4f", cluster.Efficiency(perDim[j])))
	}
	if err := eff.Render(out); err != nil {
		return err
	}
	if csvDir != "" {
		if err := tbl.WriteCSV(filepath.Join(csvDir, "fig3.csv")); err != nil {
			return err
		}
		return eff.WriteCSV(filepath.Join(csvDir, "fig3_efficiency.csv"))
	}
	return nil
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

// DistSR evaluates the distributed stochastic-reconfiguration path: for a
// sweep of replica counts at fixed per-replica batch, it reports the
// converged energy, the mean CG iteration count of the Fisher solves, and
// the measured ring traffic per step — the communication cost the
// one-collective-per-CG-iteration packing keeps linear in the parameter
// count.
func DistSR(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	tbl := trace.NewTable(
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
	if err := tbl.Render(out); err != nil {
		return err
	}
	if csvDir != "" {
		return tbl.WriteCSV(filepath.Join(csvDir, "distsr.csv"))
	}
	return nil
}

// Figure4 reproduces the batch-size-vs-convergence result: with a fixed
// per-device batch (mbs=4), more devices mean a larger effective batch and
// a better converged energy, saturating for small problems. Runs are real
// distributed training with goroutine devices and ring all-reduce.
func Figure4(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	header := []string{"n"}
	for _, L := range p.GPUCounts {
		header = append(header, fmt.Sprintf("L=%d (bs=%d)", L, L*p.MBS))
	}
	tbl := trace.NewTable(fmt.Sprintf(
		"Figure 4: normalized converged energy vs #GPUs (mbs=%d, preset %s)", p.MBS, p.Name),
		header...)
	raw := trace.NewTable("Figure 4 raw energies", header...)

	for _, n := range dims {
		energies := make([]float64, len(p.GPUCounts))
		for i, L := range p.GPUCounts {
			tr, err := buildDistTrainer(n, hiddenMADE(n), L, p.MBS, 1, 0, optimizer.SolverCG, uint64(60+i))
			if err != nil {
				return err
			}
			hist, err := tr.Train(p.Iters, nil)
			if err != nil {
				return err
			}
			// Average the final quarter to damp small-batch noise.
			q := len(hist) / 4
			var e float64
			for _, s := range hist[len(hist)-q:] {
				e += s.Energy
			}
			energies[i] = e / float64(q)
		}
		rawRow := []interface{}{n}
		for _, e := range energies {
			rawRow = append(rawRow, e)
		}
		raw.AddRow(rawRow...)
		norm := append([]float64(nil), energies...)
		stats.Normalize(norm)
		row := []interface{}{n}
		for _, e := range norm {
			row = append(row, fmt.Sprintf("%.4f", e))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	if err := raw.Render(out); err != nil {
		return err
	}
	if csvDir != "" {
		if err := tbl.WriteCSV(filepath.Join(csvDir, "fig4.csv")); err != nil {
			return err
		}
		return raw.WriteCSV(filepath.Join(csvDir, "fig4_raw.csv"))
	}
	return nil
}

// Table6 regenerates the appendix raw data: converged energy (real
// distributed runs at runnable dimensions) and modeled training time for
// every GPU configuration and dimension, at fixed mbs=4.
func Table6(p Preset, out io.Writer, csvDir string) error {
	configs := cluster.PaperConfigs()
	timeHeader := []string{"config", "GPUs"}
	for _, n := range p.BigDims {
		timeHeader = append(timeHeader, fmt.Sprintf("n=%d", n))
	}
	timeTbl := trace.NewTable(
		fmt.Sprintf("Table 6 (time side): modeled seconds, 300 iters, mbs=%d", p.MBS), timeHeader...)
	for _, c := range configs {
		topo := cluster.Default(c[0], c[1])
		row := []interface{}{topo.String(), topo.GPUs()}
		for _, n := range p.BigDims {
			t := topo.TrainingTime(n, nn.HiddenMADE(n), p.MBS, n, 300)
			row = append(row, fmt.Sprintf("%.2f", t.Seconds()))
		}
		timeTbl.AddRow(row...)
	}
	if err := timeTbl.Render(out); err != nil {
		return err
	}

	// Energy side: real runs at runnable dimensions across L = GPUs.
	dims := realDims(p)
	energyHeader := []string{"GPUs"}
	for _, n := range dims {
		energyHeader = append(energyHeader, fmt.Sprintf("n=%d", n))
	}
	energyTbl := trace.NewTable(
		fmt.Sprintf("Table 6 (energy side): converged energy, real runs (preset %s)", p.Name),
		energyHeader...)
	for _, L := range p.GPUCounts {
		row := []interface{}{L}
		for _, n := range dims {
			tr, err := buildDistTrainer(n, hiddenMADE(n), L, p.MBS, 1, 0, optimizer.SolverCG, uint64(70+L))
			if err != nil {
				return err
			}
			hist, err := tr.Train(p.Iters, nil)
			if err != nil {
				return err
			}
			q := len(hist) / 4
			var e float64
			for _, s := range hist[len(hist)-q:] {
				e += s.Energy
			}
			row = append(row, e/float64(q))
		}
		energyTbl.AddRow(row...)
	}
	if err := energyTbl.Render(out); err != nil {
		return err
	}
	if csvDir != "" {
		if err := timeTbl.WriteCSV(filepath.Join(csvDir, "table6_time.csv")); err != nil {
			return err
		}
		return energyTbl.WriteCSV(filepath.Join(csvDir, "table6_energy.csv"))
	}
	return nil
}

// Table7 regenerates the weak-scaling raw data at memory-saturating batch
// sizes: the per-GPU sample ladder (from the device memory model) and the
// modeled training time per configuration and dimension.
func Table7(p Preset, out io.Writer, csvDir string) error {
	dev := device.V100()
	configs := cluster.PaperConfigs()
	header := []string{"config", "GPUs"}
	for _, n := range p.BigDims {
		header = append(header, fmt.Sprintf("n=%d", n))
	}
	tbl := trace.NewTable("Table 7: modeled seconds, 300 iters, memory-saturating mbs", header...)
	ladder := []interface{}{"samples/GPU", "-"}
	for _, n := range p.BigDims {
		ladder = append(ladder, fmt.Sprintf("%d", dev.MaxBatchTIM(n)))
	}
	tbl.AddRow(ladder...)
	for _, c := range configs {
		topo := cluster.Default(c[0], c[1])
		row := []interface{}{topo.String(), topo.GPUs()}
		for _, n := range p.BigDims {
			t := topo.TrainingTime(n, nn.HiddenMADE(n), dev.MaxBatchTIM(n), n, 300)
			row = append(row, fmt.Sprintf("%.2f", t.Seconds()))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	if csvDir != "" {
		return tbl.WriteCSV(filepath.Join(csvDir, "table7.csv"))
	}
	return nil
}
