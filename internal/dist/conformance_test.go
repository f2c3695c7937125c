package dist

// Conformance suite for the evaluation-path doctrine, now that every model
// family (MADE, RBM, NADE, RNN) carries a batched evaluator: for each
// model x Hamiltonian x topology cell, both evaluation modes — scalar and
// batched (EvalAuto) — must produce EXACTLY the same training trajectory
// (iteration stats and final parameters, compared with ==, no tolerance).
// Distributed cells must additionally stay replica-consistent. The file
// also extends the fail-stop recovery acceptance bar (recover_test.go) to
// the two autoregressive families that previously could not checkpoint: a
// NADE or RNN rank killed mid-run must recover bit-identical through the
// kindNADE/kindRNN checkpoint path.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// nadeBuilder is the ReplicaBuilder for NADE-based trainers. Like
// madeBuilder, sampler seed and optimizer are placeholders: Recover rewinds
// the sampler to the dead rank's stream and clones a survivor's optimizer.
func nadeBuilder(rank int, model Model) (Replica, error) {
	m, ok := model.(*nn.NADE)
	if !ok {
		return Replica{}, errors.New("checkpoint did not round-trip a *NADE")
	}
	return Replica{
		Model:   m,
		Smp:     sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(0xDEAD)),
		Opt:     optimizer.NewSGD(1),
		Workers: 2,
	}, nil
}

// rnnBuilder is the ReplicaBuilder for RNN-based trainers; see nadeBuilder.
func rnnBuilder(rank int, model Model) (Replica, error) {
	m, ok := model.(*nn.RNNWavefunction)
	if !ok {
		return Replica{}, errors.New("checkpoint did not round-trip an *RNNWavefunction")
	}
	return Replica{
		Model:   m,
		Smp:     sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(0xDEAD)),
		Opt:     optimizer.NewSGD(1),
		Workers: 2,
	}, nil
}

// TestRecoveryBitIdenticalNADE extends the recovery acceptance bar to the
// NADE family, which until this PR could not checkpoint at all: L NADE
// replicas with batched ancestral samplers and SR, one rank killed
// mid-solve, recovered through the kindNADE checkpoint artifact — the run
// must finish bit-identical to an uninterrupted one and the on-disk
// checkpoint must be a loadable NADE.
func TestRecoveryBitIdenticalNADE(t *testing.T) {
	const n, h, L, mb, steps = 7, 6, 3, 8, 12
	build := func() *Trainer {
		tim := hamiltonian.RandomTIM(n, rng.New(611))
		streams := rng.New(612).SplitN(L)
		reps := make([]Replica, L)
		for r := 0; r < L; r++ {
			m := nn.NewNADE(n, h, rng.New(613))
			smp := sampler.NewAutoBatched(n, m, 1, streams[r])
			reps[r] = Replica{Model: m, Smp: smp, Opt: optimizer.NewSGD(0.1),
				SR: optimizer.NewSR(1e-3), Workers: 2}
		}
		tr, err := New(tim, reps, mb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build()
	refHist := mustTrain(t, ref, steps)
	// The SR schedule's collective count per step depends on the CG solve,
	// so aim the injection at half the healthy run's per-rank total: the
	// failure lands mid-run, mid-solve, wherever the solver takes it.
	per := ref.CollectivesByRank()
	inject := int(per[1][0]+per[1][1]) / 2

	tr := build()
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

// TestRecoveryBitIdenticalRNN is the same bar for the RNN family on the
// plain REINFORCE path, where one collective per step makes the failure
// step deterministic (FailAt(victim, k-1) kills step k exactly).
func TestRecoveryBitIdenticalRNN(t *testing.T) {
	const n, h, L, mb, steps, failStep = 6, 5, 3, 8, 14, 6
	build := func() *Trainer {
		tim := hamiltonian.RandomTIM(n, rng.New(621))
		streams := rng.New(622).SplitN(L)
		reps := make([]Replica, L)
		for r := 0; r < L; r++ {
			m := nn.NewRNN(n, h, rng.New(623))
			smp := sampler.NewAutoBatched(n, m, 1, streams[r])
			reps[r] = Replica{Model: m, Smp: smp, Opt: optimizer.NewSGD(0.1),
				Workers: 2}
		}
		tr, err := New(tim, reps, mb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build()
	refHist := mustTrain(t, ref, steps)

	for _, victim := range []int{0, L - 1} {
		tr := build()
		tr.SetCollectiveDeadline(recoveryDeadline)
		tr.InjectFailure(victim, failStep-1)
		hist, tr, failed := runWithRecovery(t, tr, steps, "", rnnBuilder)
		if failed != failStep {
			t.Fatalf("victim %d: failure hit step %d, want %d", victim, failed, failStep)
		}
		assertIdenticalRun(t, refHist, hist, ref, tr)
	}
}

// Conformance-matrix fixtures: one small problem per Hamiltonian family and
// one constructor per model family, all built from pinned seeds so every
// eval mode inside a cell sees exactly the same model, sampler stream and
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
	// smp returns the sampler matching the eval mode: autoregressive
	// models pair EvalScalar with the scalar incremental sampler and
	// EvalAuto with the batched ancestral sampler (the pairing the
	// production dispatch uses); the RBM always samples via MCMC.
	smp func(m Model, mode core.EvalMode, stream *rng.Rand) sampler.Sampler
}

// autoregSampler builds the ancestral sampler for any model implementing
// both the scalar and batched ancestral interfaces.
func autoregSampler(m Model, mode core.EvalMode, stream *rng.Rand) sampler.Sampler {
	if mode == core.EvalScalar {
		ce := m.(interface {
			NewIncrementalEvaluator() nn.ConditionalEvaluator
		})
		return sampler.NewAuto(m.NumSites(), ce.NewIncrementalEvaluator, 1, stream)
	}
	return sampler.NewAutoBatched(m.NumSites(), m.(nn.BatchAncestralBuilder), 1, stream)
}

func mcmcSampler(m Model, _ core.EvalMode, stream *rng.Rand) sampler.Sampler {
	return sampler.NewMCMC(m.(*nn.RBM), sampler.MCMCConfig{Chains: 2, BurnIn: 20}, stream)
}

func confModels() []confModel {
	return []confModel{
		{"made", func(r *rng.Rand) Model { return nn.NewMADE(confN, confH, r) }, autoregSampler},
		{"rbm", func(r *rng.Rand) Model { return nn.NewRBM(confN, confH, r) }, mcmcSampler},
		{"nade", func(r *rng.Rand) Model { return nn.NewNADE(confN, confH, r) }, autoregSampler},
		{"rnn", func(r *rng.Rand) Model { return nn.NewRNN(confN, confH, r) }, autoregSampler},
	}
}

func evalModeName(mode core.EvalMode) string {
	switch mode {
	case core.EvalScalar:
		return "scalar"
	case core.EvalAuto:
		return "batched"
	}
	return "unknown"
}

// confRun is one cell-and-mode execution: the per-iteration history plus
// the final parameters of every replica (one row for the serial topology).
type confRun struct {
	hist   []core.IterStats
	params [][]float64
}

// confWorkers is the trainer/replica worker count of the reference cells.
// The Workers axis below varies ONLY this knob: the samplers are built with
// their own worker count pinned at 1, because sampler workers own RNG
// sub-streams and slabs — a sampler-level worker change legitimately changes
// which uniforms each sample consumes, while trainer workers must never
// change anything.
const confWorkers = 2

func confSerial(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, mode core.EvalMode, workers int) confRun {
	t.Helper()
	m := mc.build(rng.New(703))
	smp := mc.smp(m, mode, rng.New(704))
	tr := core.New(ham, m, smp, optimizer.NewSGD(0.05),
		core.Config{BatchSize: confMB, Workers: workers, Eval: mode})
	hist := tr.Train(confSteps, nil)
	return confRun{hist: hist, params: [][]float64{append([]float64(nil), m.Params()...)}}
}

func confDist(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, mode core.EvalMode, L, workers int) confRun {
	t.Helper()
	streams := rng.New(705).SplitN(L)
	reps := make([]Replica, L)
	for r := 0; r < L; r++ {
		m := mc.build(rng.New(703))
		reps[r] = Replica{Model: m, Smp: mc.smp(m, mode, streams[r]),
			Opt: optimizer.NewSGD(0.05), Workers: workers, Eval: mode}
	}
	tr, err := New(ham, reps, confMB)
	if err != nil {
		t.Fatal(err)
	}
	if mode != core.EvalScalar && !tr.steps[0].Batched() {
		t.Fatalf("%s mode %s did not engage the batched evaluator", mc.name, evalModeName(mode))
	}
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

func assertConfEqual(t *testing.T, ref, got confRun, mode core.EvalMode) {
	t.Helper()
	if len(ref.hist) != len(got.hist) {
		t.Fatalf("%s: history length %d, want %d", evalModeName(mode), len(got.hist), len(ref.hist))
	}
	for i := range ref.hist {
		if ref.hist[i] != got.hist[i] {
			t.Fatalf("%s iter %d: %+v != scalar %+v", evalModeName(mode), i, got.hist[i], ref.hist[i])
		}
	}
	for r := range ref.params {
		for i := range ref.params[r] {
			if ref.params[r][i] != got.params[r][i] {
				t.Fatalf("%s replica %d param %d: %v != scalar %v (bit-identity broken)",
					evalModeName(mode), r, i, got.params[r][i], ref.params[r][i])
			}
		}
	}
}

// assertConfEqualWorkers is assertConfEqual with the worker count in the
// failure message, for the Workers-axis cells.
func assertConfEqualWorkers(t *testing.T, ref, got confRun, mode core.EvalMode, workers int) {
	t.Helper()
	if len(ref.hist) != len(got.hist) {
		t.Fatalf("%s workers=%d: history length %d, want %d",
			evalModeName(mode), workers, len(got.hist), len(ref.hist))
	}
	for i := range ref.hist {
		if ref.hist[i] != got.hist[i] {
			t.Fatalf("%s workers=%d iter %d: %+v != reference %+v (worker count perturbed the trajectory)",
				evalModeName(mode), workers, i, got.hist[i], ref.hist[i])
		}
	}
	for r := range ref.params {
		for i := range ref.params[r] {
			if ref.params[r][i] != got.params[r][i] {
				t.Fatalf("%s workers=%d replica %d param %d: %v != reference %v (bit-identity broken)",
					evalModeName(mode), workers, r, i, got.params[r][i], ref.params[r][i])
			}
		}
	}
}

// TestEvalConformanceMatrix is the table-driven conformance suite capping
// the batched-stack work: model {MADE, RBM, NADE, RNN} x Hamiltonian
// {transverse-field Ising, QUBO} x topology {serial trainer, distributed
// L=1, distributed L=3}. Within every cell the scalar path is the
// reference, and the batched path must reproduce its trajectory with exact
// ==. (MADE's full-recompute flip oracle is a reference implementation, not
// an eval mode; the nn and core suites compare it directly.) Topologies are
// NOT compared to each other — they consume sampler streams differently by
// design.
//
// The Workers axis (confWorkerCounts) then re-runs the scalar and batched
// paths of every cell at trainer/replica worker counts {1, 3, 4, 8} against
// the same workers=2 reference: worker count is a pure throughput knob, so a
// single diverging bit at any width is a doctrine violation. Sampler workers
// stay pinned at 1 throughout — see confWorkers.
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
		run  func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, mode core.EvalMode, workers int) confRun
	}{
		{"serial", confSerial},
		{"dist1", func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, mode core.EvalMode, workers int) confRun {
			return confDist(t, mc, ham, mode, 1, workers)
		}},
		{"dist3", func(t *testing.T, mc confModel, ham hamiltonian.Hamiltonian, mode core.EvalMode, workers int) confRun {
			return confDist(t, mc, ham, mode, 3, workers)
		}},
	}
	for _, mc := range confModels() {
		for _, hc := range hams {
			for _, tc := range topos {
				t.Run(fmt.Sprintf("%s/%s/%s", mc.name, hc.name, tc.name), func(t *testing.T) {
					ham := hc.build()
					ref := tc.run(t, mc, ham, core.EvalScalar, confWorkers)
					assertConfEqual(t, ref, tc.run(t, mc, ham, core.EvalAuto, confWorkers), core.EvalAuto)
					for _, w := range confWorkerCounts {
						for _, mode := range []core.EvalMode{core.EvalScalar, core.EvalAuto} {
							got := tc.run(t, mc, ham, mode, w)
							assertConfEqualWorkers(t, ref, got, mode, w)
						}
					}
				})
			}
		}
	}
}
