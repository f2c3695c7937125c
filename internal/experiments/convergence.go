package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// figure2 records the training curves (mean local energy and its std-dev
// per iteration) for RBM&MCMC and MADE&AUTO on TIM instances, the data
// behind the paper's Figure 2. Full curves go to CSV; the table summarizes
// start/end energy and std so the stability comparison is visible in text.
func figure2(p Preset, out io.Writer, csvDir string) error {
	tbl := newTable(
		fmt.Sprintf("Figure 2 summary: TIM training curves (preset %s, %d iters)", p.Name, p.Iters),
		"Method", "n", "E first", "E last", "std first", "std last", "stable")
	for _, n := range realDims(p) {
		tim := timInstance(n)
		for _, model := range []string{"RBM", "MADE"} {
			spec := runSpec{h: tim, model: model, opt: "ADAM", iters: p.Iters,
				batchSize: p.BatchSize, evalBatch: p.EvalBatch, workers: p.Workers, seed: 31}
			res, err := train(spec)
			if err != nil {
				return err
			}
			first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
			// "Stable" means monotone-ish: the last-quarter mean energy is
			// below the first-quarter mean.
			q := len(res.Curve) / 4
			var e0, e1 float64
			for i := 0; i < q; i++ {
				e0 += res.Curve[i].Energy
				e1 += res.Curve[len(res.Curve)-1-i].Energy
			}
			stable := e1 < e0
			method := model + "&MCMC"
			if model == "MADE" {
				method = model + "&AUTO"
			}
			tbl.AddRow(method, n, first.Energy, last.Energy, first.Std, last.Std,
				fmt.Sprintf("%v", stable))
			name := fmt.Sprintf("fig2_%s_n%d.csv", model, n)
			if err := saveCSV(csvDir, name, curveTable(res.Curve)); err != nil {
				return err
			}
		}
	}
	return emit(out, csvDir, "fig2_summary.csv", tbl)
}

// table2 reproduces the converged-objective comparison: classical Max-Cut
// baselines (Random, Goemans-Williamson, Burer-Monteiro) against
// {RBM&MCMC, MADE&AUTO} x {SGD, ADAM, SGD+SR}, on both Max-Cut (maximize
// cut) and TIM (minimize energy), averaged over seeds.
func table2(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	tbl := newTable(
		fmt.Sprintf("Table 2: optimized objectives (preset %s, %d seeds)", p.Name, p.Seeds),
		append([]string{"Problem", "Model", "Sampler", "Optimizer"}, dimHeaders(dims)...)...)

	addRow := func(problem, model, smp, opt string, cells []string) {
		row := []any{problem, model, smp, opt}
		for _, c := range cells {
			row = append(row, c)
		}
		tbl.AddRow(row...)
	}

	// --- Max-Cut section: classical baselines, labelled in the order of
	// maxcut.Methods (random, gw, bm) ---
	labels := []string{"Random", "Goemans-Williamson", "Burer-Monteiro"}
	for i, method := range maxcut.Methods() {
		cells := []string{}
		for _, n := range dims {
			g, _ := maxCutInstance(n)
			vals := make([]float64, p.Seeds)
			for s := 0; s < p.Seeds; s++ {
				res, err := maxcut.Solve(g, method, maxcut.Config{}, rng.New(uint64(100+s)))
				if err != nil {
					return err
				}
				vals[s] = res.Cut
			}
			cells = append(cells, meanStdOver(vals))
		}
		addRow("Max-Cut", "Classical: "+labels[i], "-", "-", cells)
	}

	// --- VQMC on both problems: the cut on Max-Cut, the energy on TIM ---
	for _, problem := range []struct {
		name     string
		seed     uint64
		instance func(n int) (hamiltonian.Hamiltonian, func(energy float64) float64)
	}{
		{"Max-Cut", 200, func(n int) (hamiltonian.Hamiltonian, func(float64) float64) {
			_, mc := maxCutInstance(n)
			return mc, mc.CutFromEnergy
		}},
		{"TIM", 300, func(n int) (hamiltonian.Hamiltonian, func(float64) float64) {
			return timInstance(n), func(energy float64) float64 { return energy }
		}},
	} {
		for _, model := range []string{"RBM", "MADE"} {
			smpName := map[string]string{"RBM": "MCMC", "MADE": "AUTO"}[model]
			for _, opt := range []string{"SGD", "ADAM", "SGD+SR"} {
				cells := []string{}
				for _, n := range dims {
					h, objective := problem.instance(n)
					vals := make([]float64, p.Seeds)
					for s := range vals {
						res, err := train(runSpec{h: h, model: model, opt: opt, iters: p.Iters,
							batchSize: p.BatchSize, evalBatch: p.EvalBatch,
							workers: p.Workers, seed: problem.seed + uint64(s)})
						if err != nil {
							return err
						}
						vals[s] = objective(res.EvalEnergy)
					}
					cells = append(cells, meanStdOver(vals))
				}
				addRow(problem.name, model, smpName, opt, cells)
			}
		}
	}
	return emit(out, csvDir, "table2.csv", tbl)
}

// table3 runs the latent-size ablation: converged cut (real runs) and
// training time (modeled V100 seconds) across hidden sizes
// {(ln n)^2, 3(ln n)^2, 5(ln n)^2, n, 5n} for MADE and
// {(ln n)^2, 3(ln n)^2, n, 5n} for RBM on Max-Cut with Adam.
func table3(p Preset, out io.Writer, csvDir string) error {
	dev := v100()
	latents := func(n int) map[string]int {
		l2 := math.Log(float64(n)) * math.Log(float64(n))
		return map[string]int{
			"(ln n)^2":  max(2, int(math.Round(l2))),
			"3(ln n)^2": max(2, int(math.Round(3*l2))),
			"5(ln n)^2": max(2, int(math.Round(5*l2))),
			"n":         n,
			"5n":        5 * n,
		}
	}
	order := []string{"(ln n)^2", "3(ln n)^2", "5(ln n)^2", "n", "5n"}

	tbl := newTable(
		fmt.Sprintf("Table 3: latent-size ablation on Max-Cut (preset %s)", p.Name),
		"Model", "n", "latent", "h", "cut", "modeled V100 s")
	for _, model := range []string{"MADE", "RBM"} {
		for _, n := range realDims(p) {
			_, mc := maxCutInstance(n)
			for _, name := range order {
				if model == "RBM" && name == "5(ln n)^2" {
					continue // paper omits this cell for RBM
				}
				h := latents(n)[name]
				spec := runSpec{h: mc, model: model, opt: "ADAM", latent: h,
					iters: p.Iters, batchSize: p.BatchSize, evalBatch: p.EvalBatch,
					workers: p.Workers, seed: 41}
				res, err := train(spec)
				if err != nil {
					return err
				}
				cut := mc.CutFromEnergy(res.EvalEnergy)
				var modeled float64
				if model == "MADE" {
					modeled = trainingTime(dev.MADEAutoIter(n, h, 1024, 0), 300).Seconds()
				} else {
					modeled = trainingTime(dev.RBMMCMCIter(n, h, 1024, 2, 3*n+100, 1, 0), 300).Seconds()
				}
				tbl.AddRow(model, n, name, h, cut, fmt.Sprintf("%.2f", modeled))
			}
		}
	}
	return emit(out, csvDir, "table3.csv", tbl)
}

// table4 runs the MCMC sampling-scheme ablation: burn-in {n, 3n+100, 10n}
// (Scheme 1) and thinning {x2, x5, x10} (Scheme 2) for RBM&ADAM on Max-Cut.
// Cut values are real runs; times are modeled V100 seconds, which reproduce
// the paper's observation that time scales with the chain length only.
func table4(p Preset, out io.Writer, csvDir string) error {
	dev := v100()
	tbl := newTable(
		fmt.Sprintf("Table 4: MCMC sampling-scheme ablation (preset %s)", p.Name),
		"Scheme", "n", "burn-in", "thin", "cut", "modeled V100 s")
	type scheme struct {
		name   string
		burnIn func(n int) int
		thin   int
	}
	schemes := []scheme{
		{"1: k=n", func(n int) int { return n }, 1},
		{"1: k=3n+100", func(n int) int { return 3*n + 100 }, 1},
		{"1: k=10n", func(n int) int { return 10 * n }, 1},
		{"2: x2", func(n int) int { return 0 }, 2},
		{"2: x5", func(n int) int { return 0 }, 5},
		{"2: x10", func(n int) int { return 0 }, 10},
	}
	for _, sc := range schemes {
		for _, n := range realDims(p) {
			_, mc := maxCutInstance(n)
			k := sc.burnIn(n)
			mcfg := sampler.MCMCConfig{Chains: 2, BurnIn: k, Thin: sc.thin}
			if k == 0 {
				mcfg.BurnIn = -1 // sentinel: zero burn-in, not default
			}
			spec := runSpec{h: mc, model: "RBM", opt: "ADAM", mcmc: mcfg,
				iters: p.Iters, batchSize: p.BatchSize, evalBatch: p.EvalBatch,
				workers: p.Workers, seed: 51}
			res, err := train(spec)
			if err != nil {
				return err
			}
			cut := mc.CutFromEnergy(res.EvalEnergy)
			modeled := trainingTime(
				dev.RBMMCMCIter(n, n, 1024, 2, k, sc.thin, 0), 300).Seconds()
			tbl.AddRow(sc.name, n, k, sc.thin, cut, fmt.Sprintf("%.2f", modeled))
		}
	}
	return emit(out, csvDir, "table4.csv", tbl)
}
