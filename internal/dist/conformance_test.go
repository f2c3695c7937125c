package dist

// Conformance suite for the one evaluation path: for each model x
// Hamiltonian x topology cell, every worker count — every way nn's row
// split can share a mini-batch out over single-threaded evaluators — must
// produce EXACTLY the same training trajectory (iteration stats and final
// parameters, compared with ==, no tolerance). Distributed cells must
// additionally stay replica-consistent. What pins that trajectory to scalar
// arithmetic is core's TestStepMatchesOracle (plain loops over the scalar
// kernels, both Hamiltonians, every family). The file
// also extends the fail-stop recovery acceptance bar (recover_test.go) to
// NADE: a NADE rank killed mid-run must recover bit-identical through the
// NADE checkpoint kind (kind byte 3).

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// nadeBuilder is the ReplicaBuilder of the NADE run. Like madeBuilder,
// sampler seed and optimizer are placeholders: Recover rewinds the sampler
// to the dead rank's stream and clones a survivor's optimizer. The
// checkpoint must have round-tripped a NADE.
func nadeBuilder(rank int, model Model) (Replica, error) {
	if got := nn.KindName(model); got != "nade" {
		return Replica{}, fmt.Errorf("checkpoint round-tripped a %s model, want nade", got)
	}
	return Replica{Model: model, Smp: ancestral(2)(rank, model, rng.New(0xDEAD)), Opt: optimizer.NewSGD(1), Workers: 2}, nil
}

// TestRecoveryBitIdenticalNADE extends the recovery acceptance bar to the
// NADE family, which until this PR could not checkpoint at all: L NADE
// replicas with batched ancestral samplers and SR, one rank killed
// mid-solve, recovered through a NADE (kind 3) checkpoint artifact — the run
// must finish bit-identical to an uninterrupted one and the on-disk
// checkpoint must be a loadable NADE.
func TestRecoveryBitIdenticalNADE(t *testing.T) {
	const n, h, L, mb, steps = 7, 6, 3, 8, 12
	f := fixture{ham: hamiltonian.RandomTIM(n, rng.New(611)), mb: mb, workers: []int{2, 2, 2}, init: 613, stream: 612,
		model: func(r *rng.Rand) Model { return nn.NewNADE(n, h, r) }, smp: ancestral(2), sgd: 0.1, sr: optimizer.NewSR(1e-3)}
	ref := f.build(t)
	refHist := mustTrain(t, ref, steps)
	// The SR schedule's collective count per step depends on the CG solve,
	// so aim the injection at half the healthy run's per-rank total: the
	// failure lands mid-run, mid-solve, wherever the solver takes it.
	per := ref.CollectivesByRank()
	inject := int(per[1][0]+per[1][1]) / 2

	tr := f.build(t)
	tr.SetCollectiveDeadline(recoveryDeadline)
	tr.InjectFailure(1, inject)
	dir := t.TempDir()
	hist, tr, failed := runWithRecovery(t, tr, steps, dir, nadeBuilder)
	if failed <= 1 || failed >= steps {
		t.Fatalf("failure hit step %d, want mid-run", failed)
	}
	assertIdenticalRun(t, refHist, hist, ref, tr)
	m, err := filepath.Glob(filepath.Join(dir, "recover-step*.pvq"))
	if err != nil || len(m) != 1 {
		t.Fatalf("recovery checkpoint artifact missing: %v %v", m, err)
	}
	w, err := nn.LoadFile(m[0])
	if err != nil {
		t.Fatalf("recovery checkpoint unreadable: %v", err)
	}
	if _, ok := w.(*nn.NADE); !ok {
		t.Fatalf("recovery checkpoint decoded as %T, want *nn.NADE", w)
	}
}

// Conformance-matrix fixtures: one small problem per Hamiltonian family and
// one constructor per model family, all built from pinned seeds so every
// run inside a cell sees exactly the same model, sampler stream and
// Hamiltonian.
const (
	confN     = 6
	confH     = 7
	confMB    = 8
	confSteps = 8
)

type confModel struct {
	name  string
	build func(r *rng.Rand) Model
	// smp is the sampler the production dispatch pairs with the family, at
	// the cell's worker count: ancestral for the autoregressive models and
	// MCMC for the RBM.
	smp func(workers int) func(int, Model, *rng.Rand) sampler.Sampler
}

// mcmc is the RBM's sampler in the conformance cells; MCMC has no worker
// knob.
func mcmc(int) func(int, Model, *rng.Rand) sampler.Sampler {
	return func(_ int, m Model, stream *rng.Rand) sampler.Sampler {
		return sampler.NewMCMC(m.(*nn.RBM), sampler.MCMCConfig{Chains: 2, BurnIn: 20}, stream)
	}
}

func confModels() []confModel {
	return []confModel{
		{"made", func(r *rng.Rand) Model { return nn.NewMADE(confN, confH, r) }, ancestral},
		{"rbm", func(r *rng.Rand) Model { return nn.NewRBM(confN, confH, r) }, mcmc},
		{"nade", func(r *rng.Rand) Model { return nn.NewNADE(confN, confH, r) }, ancestral},
	}
}

// confRun is one execution of a cell: the per-iteration history plus the
// final parameters of every replica (one row for the serial topology).
type confRun struct {
	hist   []core.IterStats
	params [][]float64
}

// confWorkers is the worker count of each cell's reference run. The Workers
// axis moves the trainer/replica knob and the ancestral sampler's fan-out
// together, as Train and TrainDistributed do: the sampler draws from one
// stream whatever its worker count, so neither may change anything.
const confWorkers = 2

func confSerial(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, workers int) confRun {
	t.Helper()
	m := mc.build(rng.New(703))
	tr := core.New(ham, m, mc.smp(workers)(0, m, rng.New(704)), optimizer.NewSGD(0.05),
		core.Config{BatchSize: confMB, Workers: workers})
	hist := tr.Train(confSteps, nil)
	return confRun{hist: hist, params: [][]float64{append([]float64(nil), m.Params()...)}}
}

func confDist(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, L, workers int) confRun {
	t.Helper()
	tr := fixture{ham: ham, mb: confMB, workers: slices.Repeat([]int{workers}, L), init: 703, stream: 705, model: mc.build, sgd: 0.05,
		smp: mc.smp(workers)}.build(t)
	hist := mustTrain(t, tr, confSteps)
	if err := tr.CheckConsistent(); err != nil {
		t.Fatalf("replicas diverged: %v", err)
	}
	out := confRun{hist: hist, params: make([][]float64, L)}
	for r := 0; r < L; r++ {
		out.params[r] = append([]float64(nil), tr.Reps[r].Model.Params()...)
	}
	return out
}

func assertConfEqual(t *testing.T, ref, got confRun, workers int) {
	t.Helper()
	if len(ref.hist) != len(got.hist) {
		t.Fatalf("workers=%d: history length %d, want %d", workers, len(got.hist), len(ref.hist))
	}
	for i := range ref.hist {
		if ref.hist[i] != got.hist[i] {
			t.Fatalf("workers=%d iter %d: %+v != reference %+v (worker count perturbed the trajectory)",
				workers, i, got.hist[i], ref.hist[i])
		}
	}
	for r := range ref.params {
		for i := range ref.params[r] {
			if ref.params[r][i] != got.params[r][i] {
				t.Fatalf("workers=%d replica %d param %d: %v != reference %v (bit-identity broken)",
					workers, r, i, got.params[r][i], ref.params[r][i])
			}
		}
	}
}

// TestEvalConformanceMatrix is the table-driven conformance suite of the
// evaluation stack: model {MADE, RBM, NADE} x Hamiltonian
// {transverse-field Ising, QUBO} x topology {serial trainer, distributed
// L=1, distributed L=3} x workers. Within every cell the workers=2 run is
// the reference, and the runs at trainer/replica worker counts {1, 3, 4, 8}
// — one share called directly, ragged shares of the 8-row mini-batch, one
// row per share — must reproduce its trajectory with exact ==: worker count
// is a pure throughput knob, so a single diverging bit at any width is a
// doctrine violation. The ancestral samplers are built at the cell's worker
// count too — see confWorkers. Topologies are NOT compared to each other —
// they consume sampler streams differently by design. (There is no evaluation-mode axis:
// the step has one path. MADE's full-recompute flip oracle is a reference
// implementation the nn and core suites compare directly.)
var confWorkerCounts = []int{1, 3, 4, 8}

func TestEvalConformanceMatrix(t *testing.T) {
	hams := []struct {
		name  string
		build func() hamiltonian.Hamiltonian
	}{
		{"tim", func() hamiltonian.Hamiltonian { return hamiltonian.RandomTIM(confN, rng.New(701)) }},
		{"qubo", func() hamiltonian.Hamiltonian { return hamiltonian.RandomQUBO(confN, rng.New(702)) }},
	}
	topos := []struct {
		name string
		run  func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, workers int) confRun
	}{
		{"serial", confSerial},
		{"dist1", func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, workers int) confRun {
			return confDist(t, mc, ham, 1, workers)
		}},
		{"dist3", func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, workers int) confRun {
			return confDist(t, mc, ham, 3, workers)
		}},
	}
	for _, mc := range confModels() {
		for _, hc := range hams {
			for _, tc := range topos {
				t.Run(fmt.Sprintf("%s/%s/%s", mc.name, hc.name, tc.name), func(t *testing.T) {
					ham := hc.build()
					ref := tc.run(t, mc, ham, confWorkers)
					for _, w := range confWorkerCounts {
						assertConfEqual(t, ref, tc.run(t, mc, ham, w), w)
					}
				})
			}
		}
	}
}
