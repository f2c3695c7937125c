package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// table1 reproduces the paper's Table 1: training time for 300 iterations
// of RBM&MCMC vs MADE&AUTO on TIM across dimensions. The V100 columns come
// from the calibrated device model (we have no GPU); the CPU columns are
// real wall-clock measurements at the preset's runnable dimensions, showing
// the same ordering.
func table1(p Preset, out io.Writer, csvDir string) error {
	dev := v100()
	dims := paperPreset().Dims // the modeled columns always use paper dims

	modelTable := newTable(
		fmt.Sprintf("Table 1 (modeled V100 seconds, %d iterations, bs=%d)", 300, 1024),
		append([]string{"Model", "Optimizer", "Sampler"}, dimHeaders(dims)...)...)
	rbmRow := []any{"RBM", "ADAM", "MCMC"}
	madeRow := []any{"MADE", "ADAM", "AUTO"}
	for _, n := range dims {
		rbm := trainingTime(dev.RBMMCMCIter(n, n, 1024, 2, 3*n+100, 1, n), 300)
		made := trainingTime(dev.MADEAutoIter(n, nn.HiddenMADE(n), 1024, n), 300)
		rbmRow = append(rbmRow, fmt.Sprintf("%.2f", rbm.Seconds()))
		madeRow = append(madeRow, fmt.Sprintf("%.2f", made.Seconds()))
	}
	modelTable.AddRow(rbmRow...)
	modelTable.AddRow(madeRow...)
	if err := emit(out, csvDir, "table1_modeled.csv", modelTable); err != nil {
		return err
	}

	// Real CPU measurements at runnable dimensions.
	cpuTable := newTable(
		fmt.Sprintf("Table 1 (measured CPU seconds, %d iterations, bs=%d, preset %s)",
			p.Iters, p.BatchSize, p.Name),
		append([]string{"Model", "Optimizer", "Sampler"}, dimHeaders(realDims(p))...)...)
	rows := [][]any{{"RBM", "ADAM", "MCMC"}, {"MADE", "ADAM", "AUTO"}}
	for _, n := range realDims(p) {
		tim := timInstance(n)
		for i, row := range rows { // row[0] names the model
			res, err := train(runSpec{h: tim, model: row[0].(string), opt: "ADAM", iters: p.Iters,
				batchSize: p.BatchSize, evalBatch: p.EvalBatch, workers: p.Workers, seed: 11})
			if err != nil {
				return err
			}
			rows[i] = append(row, fmt.Sprintf("%.2f", res.TrainTime.Seconds()))
		}
	}
	cpuTable.AddRow(rows[0]...)
	cpuTable.AddRow(rows[1]...)
	return emit(out, csvDir, "table1_cpu.csv", cpuTable)
}

// table5 reproduces the hitting-time comparison: iterations and time until
// a fresh evaluation batch's mean cut surpasses a target. Targets are set
// from a Burer-Monteiro reference cut, mirroring the paper's heuristically
// chosen targets. Reported times: measured CPU seconds and modeled V100
// seconds (measured iterations x modeled per-iteration cost).
func table5(p Preset, out io.Writer, csvDir string) error {
	dev := v100()
	tbl := newTable(
		fmt.Sprintf("Table 5: time to reach target cut (preset %s)", p.Name),
		"Method", "n", "target", "hit", "iters", "CPU s", "modeled V100 s")

	for _, n := range realDims(p) {
		g, mc := maxCutInstance(n)
		target, err := targetCut(g, n)
		if err != nil {
			return err
		}
		for _, method := range []string{"MADE+AUTO", "RBM+MCMC"} {
			spec := runSpec{h: mc, iters: p.Iters, batchSize: p.BatchSize,
				evalBatch: p.EvalBatch, workers: p.Workers, seed: 21, opt: "ADAM"}
			var perIter float64
			if method == "MADE+AUTO" {
				spec.model = "MADE"
				perIter = dev.MADEAutoIter(n, nn.HiddenMADE(n), p.BatchSize, 0).Total().Seconds()
			} else {
				spec.model = "RBM"
				perIter = dev.RBMMCMCIter(n, n, p.BatchSize, 2, 3*n+100, 1, 0).Total().Seconds()
			}
			tr, err := newTrainer(spec)
			if err != nil {
				return err
			}
			res, err := trainUntil(tr, target, mc.CutFromEnergy, spec.iters*3, spec.evalBatch)
			if err != nil {
				return err
			}
			tbl.AddRow(method, n, target, fmt.Sprintf("%v", res.Hit),
				res.Iters, fmt.Sprintf("%.2f", res.TrainTime.Seconds()),
				fmt.Sprintf("%.2f", float64(res.Iters)*perIter))
		}
	}
	return emit(out, csvDir, "table5.csv", tbl)
}

// hitResult reports a hitting-time run (the paper's Table 5 protocol).
type hitResult struct {
	Hit       bool
	Iters     int
	TrainTime time.Duration // training time only; evaluation excluded
	Score     float64       // final evaluation score
}

// trainUntil trains until score(evalEnergy) >= target, evaluating a fresh
// batch after every iteration, for at most maxIters iterations. Evaluation
// time is excluded from TrainTime, matching the paper's measurement
// protocol.
func trainUntil(tr *dist.Trainer, target float64, score func(meanEnergy float64) float64, maxIters, evalBatch int) (hitResult, error) {
	var trainTime time.Duration
	for i := 1; i <= maxIters; i++ {
		start := time.Now()
		if _, err := tr.Step(i); err != nil {
			return hitResult{}, err
		}
		trainTime += time.Since(start)
		mean, _, err := tr.Evaluate(evalBatch)
		if err != nil {
			return hitResult{}, err
		}
		if s := score(mean); s >= target {
			return hitResult{Hit: true, Iters: i, TrainTime: trainTime, Score: s}, nil
		}
	}
	mean, _, err := tr.Evaluate(evalBatch)
	return hitResult{Iters: maxIters, TrainTime: trainTime, Score: score(mean)}, err
}

// targetCut picks a target the way the paper did: heuristically just below
// a strong solver's result — 95% of the Burer-Monteiro cut for the same
// instance (the paper's targets sit 95-98% below its Table 2 values).
func targetCut(g *graph.Graph, n int) (float64, error) {
	if n > 64 {
		// BM is too slow to serve as an oracle at large n; fall back to a
		// fixed fraction above the random baseline.
		return 0.55 * g.TotalWeight(), nil
	}
	ref, err := maxcut.Solve(g, "bm", maxcut.Config{MaxIter: 60, Rounds: 50}, rng.New(uint64(n)))
	return 0.95 * ref.Cut, err
}

func dimHeaders(dims []int) []string {
	out := make([]string, len(dims))
	for i, n := range dims {
		out[i] = fmt.Sprintf("n=%d", n)
	}
	return out
}

// realDims filters the preset's dims to those trainable on this machine.
func realDims(p Preset) []int {
	out := []int{}
	for _, n := range p.Dims {
		if n <= p.MaxRealDim {
			out = append(out, n)
		}
	}
	return out
}
