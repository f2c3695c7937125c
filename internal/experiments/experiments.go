// Package experiments regenerates every table and figure of the paper's
// evaluation section (cmd/experiments -list prints the index).
//
// Two presets control scale. "paper" uses the paper's dimensions and
// iteration counts — faithful but extremely slow without the original GPU
// cluster. "ci" shrinks dimensions and iterations so every experiment runs
// on a laptop-class CPU in minutes while preserving the comparisons each
// table is about (who wins, how costs scale). Timing columns that the paper
// measured on V100 GPUs are additionally reported from the calibrated
// device and cluster models (device.go, cluster.go), which are
// dimension-faithful at any scale. The package exports only what
// cmd/experiments calls.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// Preset bundles the scale knobs of a full experiment sweep.
type Preset struct {
	Name      string
	Dims      []int // problem sizes for Tables 1-5 / Figure 2
	BigDims   []int // dimensions for Figures 3-4 / Tables 6-7
	Iters     int   // training iterations per run
	BatchSize int   // training batch size
	EvalBatch int   // evaluation batch size
	Seeds     int   // independent repetitions
	GPUCounts []int // Figure 4 device counts
	MBS       int   // per-device batch for Figures 3-4 / Table 6
	// MaxRealDim bounds the dimensions actually trained on this machine;
	// larger dimensions appear in modeled-time columns only.
	MaxRealDim int
	Workers    int // CPU workers per run
}

// paperPreset reproduces the paper's exact parameters. Expect days of CPU
// time at the large dimensions.
func paperPreset() Preset {
	return Preset{
		Name:       "paper",
		Dims:       []int{20, 50, 100, 200, 500},
		BigDims:    []int{20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
		Iters:      300,
		BatchSize:  1024,
		EvalBatch:  1024,
		Seeds:      5,
		GPUCounts:  []int{1, 2, 4, 8, 16, 24},
		MBS:        4,
		MaxRealDim: 500,
		Workers:    0,
	}
}

// ciPreset shrinks everything to minutes of CPU time while keeping every
// comparison qualitative.
func ciPreset() Preset {
	return Preset{
		Name:       "ci",
		Dims:       []int{12, 16, 24},
		BigDims:    []int{20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
		Iters:      200,
		BatchSize:  256,
		EvalBatch:  512,
		Seeds:      2,
		GPUCounts:  []int{1, 2, 4, 8, 16},
		MBS:        4,
		MaxRealDim: 32,
		Workers:    0,
	}
}

// smokePreset is the tiny preset used by unit tests of this package.
func smokePreset() Preset {
	return Preset{
		Name:       "smoke",
		Dims:       []int{8, 10},
		BigDims:    []int{20, 100, 1000, 10000},
		Iters:      40,
		BatchSize:  64,
		EvalBatch:  128,
		Seeds:      1,
		GPUCounts:  []int{1, 2, 4},
		MBS:        4,
		MaxRealDim: 12,
		Workers:    2,
	}
}

// PresetByName resolves "paper", "ci" or "smoke".
func PresetByName(name string) (Preset, error) {
	switch name {
	case "paper":
		return paperPreset(), nil
	case "ci", "":
		return ciPreset(), nil
	case "smoke":
		return smokePreset(), nil
	}
	return Preset{}, fmt.Errorf("experiments: unknown preset %q", name)
}

// Experiment is a runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Preset, out io.Writer, csvDir string) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Training time, 300 iterations, one GPU (TIM)", table1},
		{"fig2", "Training curves for TIM (energy and std-dev)", figure2},
		{"table2", "Converged objective values (Max-Cut and TIM)", table2},
		{"fig3", "Weak scaling of sampling time across GPU configurations", figure3},
		{"fig4", "Converged energy vs number of GPUs (effective batch)", figure4},
		{"table3", "Ablation: latent size (cut and time)", table3},
		{"table4", "Ablation: MCMC sampling scheme (cut and time)", table4},
		{"table5", "Hitting time to target cut", table5},
		{"distsr", "Distributed SR: energy, CG iterations, ring traffic", distSR},
		{"table6", "Raw data: converged energy and time per GPU config", table6},
		{"table7", "Raw data: weak-scaling times at memory-saturating batch", table7},
		{"eq14", "Supplementary: Eq. 14 MCMC parallel efficiency", eq14},
	}
}

// Run executes one experiment by ID.
func Run(id string, p Preset, out io.Writer, csvDir string) error {
	for _, e := range All() {
		if e.ID == id {
			fmt.Fprintf(out, "== %s: %s (preset %s) ==\n", e.ID, e.Title, p.Name)
			return e.Run(p, out, csvDir)
		}
	}
	ids := make([]string, 0)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// ---- shared run helpers ----

// hiddenMADE applies the paper's latent rule, with a floor for tiny CI dims.
func hiddenMADE(n int) int { return max(nn.HiddenMADE(n), 8) }

// runSpec describes one VQMC training run.
type runSpec struct {
	h         hamiltonian.Hamiltonian
	model     string // "MADE" or "RBM"
	opt       string // "SGD", "ADAM", "SGD+SR"
	latent    int    // hidden size; 0 = paper default for the model
	mcmc      sampler.MCMCConfig
	iters     int
	batchSize int
	evalBatch int
	workers   int
	seed      uint64
}

// runResult is the outcome of one training run.
type runResult struct {
	EvalEnergy float64
	Curve      []core.IterStats
	TrainTime  time.Duration
}

// buildOptimizer maps a spec name to an optimizer and optional SR.
func buildOptimizer(name string) (optimizer.Optimizer, *optimizer.SR) {
	switch name {
	case "SGD":
		return optimizer.NewSGD(0.1), nil
	case "ADAM":
		return optimizer.NewAdam(0.01), nil
	case "SGD+SR":
		return optimizer.NewSGD(0.1), optimizer.NewSR(1e-3)
	}
	panic("experiments: unknown optimizer " + name)
}

// newTrainer builds the one-replica trainer a run spec describes: the
// model from the seed's first split, the sampler from its second.
func newTrainer(spec runSpec) (*dist.Trainer, error) {
	n := spec.h.N()
	r := rng.New(spec.seed)
	opt, sr := buildOptimizer(spec.opt)
	workers := spec.workers
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}

	var model dist.Model
	var smp sampler.Sampler
	switch spec.model {
	case "MADE":
		hsz := spec.latent
		if hsz <= 0 {
			hsz = hiddenMADE(n)
		}
		m := nn.NewMADE(n, hsz, r.Split())
		model, smp = m, sampler.NewAutoBatched(m.NumSites(), m, spec.workers, r.Split())
	case "RBM":
		hsz := spec.latent
		if hsz <= 0 {
			hsz = n
		}
		m := nn.NewRBM(n, hsz, r.Split())
		model, smp = m, sampler.NewMCMC(m, spec.mcmc, r.Split())
	default:
		panic("experiments: unknown model " + spec.model)
	}

	return dist.New(spec.h, []dist.Replica{{Model: model, Smp: smp, Opt: opt, SR: sr, Workers: workers}}, spec.batchSize)
}

// train executes a run spec end to end.
func train(spec runSpec) (runResult, error) {
	tr, err := newTrainer(spec)
	if err != nil {
		return runResult{}, err
	}
	start := time.Now()
	curve, err := tr.Train(spec.iters, nil)
	if err != nil {
		return runResult{}, err
	}
	elapsed := time.Since(start)
	mean, _, err := tr.Evaluate(spec.evalBatch)
	return runResult{EvalEnergy: mean, Curve: curve, TrainTime: elapsed}, err
}

// maxCutInstance builds the fixed problem instance for a dimension: the
// paper samples each instance once per size and reuses it across seeds.
func maxCutInstance(n int) (*graph.Graph, *hamiltonian.MaxCut) {
	g := graph.RandomBernoulli(n, rng.New(uint64(1e6+n)))
	return g, hamiltonian.NewMaxCut(g)
}

// timInstance builds the fixed TIM instance for a dimension.
func timInstance(n int) *hamiltonian.TIM {
	return hamiltonian.RandomTIM(n, rng.New(uint64(2e6+n)))
}

// meanStdOver aggregates per-seed scalars into the "mean +- std" cell the
// paper reports.
func meanStdOver(values []float64) string {
	var m, s float64
	for _, v := range values {
		m += v
	}
	m /= float64(len(values))
	for _, v := range values {
		s += float64((v - m) * (v - m))
	}
	s = math.Sqrt(s / float64(len(values)))
	return meanStd(m, s)
}
