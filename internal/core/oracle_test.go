package core

import (
	"fmt"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/stats"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// oracle is the VQMC iteration as plain serial loops over public pieces,
// sharing nothing with ReplicaStep: no comm group, no packed payloads, no
// batched evaluator, no kept Fisher operator. Both trainers run the one
// shipped step, so their L=1 == pins only compare it with itself; this is
// what the step is compared against.
type oracle struct {
	h      hamiltonian.Hamiltonian
	model  Model
	smp    sampler.Sampler
	opt    optimizer.Optimizer
	sr     *optimizer.SR
	batch  *sampler.Batch
	locals []float64
	w      []float64
	ows    *tensor.Batch
	parts  *tensor.Batch
	iter   int
}

func newOracle(h hamiltonian.Hamiltonian, model Model, smp sampler.Sampler, opt optimizer.Optimizer, sr *optimizer.SR, bs int) *oracle {
	d := model.NumParams()
	return &oracle{h: h, model: model, smp: smp, opt: opt, sr: sr,
		batch: sampler.NewBatch(bs, h.N()), locals: make([]float64, bs), w: make([]float64, bs),
		ows: tensor.NewBatch(bs, d), parts: tensor.NewBatch(GradBlocks(bs), d)}
}

func (o *oracle) step() IterStats {
	o.iter++
	bs := o.batch.N
	o.smp.Sample(o.batch)
	LocalEnergies(o.h, o.model, o.batch, 1, o.locals)
	mean, std := stats.MeanStd(o.locals)
	st := IterStats{Iter: o.iter, Batch: bs, Energy: mean, Std: std}
	for k := 0; k < bs; k++ {
		o.model.GradLogPsi(o.batch.Row(k), o.ows.Sample(k))
		o.w[k] = 2 * (o.locals[k] - mean) / float64(bs)
	}
	grad := tensor.NewVector(o.model.NumParams())
	AddWeightedRows(grad, o.ows, o.w, o.parts, 1)
	delta := grad
	if o.sr != nil {
		delta = o.sr.Precondition(o.ows, grad)
		st.SRIters, st.SRResidual = o.sr.LastSolve().Iterations, o.sr.LastSolve().Residual
	}
	o.opt.Step(o.model.Params(), delta)
	nn.InvalidateParams(o.model)
	return st
}

// TestStepMatchesOracle pins the shipped step to the plain-loop oracle with
// exact == on IterStats and parameters: REINFORCE and both SR solvers, every
// family (the RBM on MCMC and on block Gibbs), workers 1 and 3, on a
// transverse-field Ising and a QUBO Hamiltonian. The step evaluates through
// the batch evaluators only; the oracle's LocalEnergies and per-row
// GradLogPsi are the scalar kernels, so this is what holds every trajectory
// — and, through the worker-count identities of dist's conformance matrix,
// every topology — to scalar arithmetic. Each side builds its own model and
// sampler from the same seeds.
func TestStepMatchesOracle(t *testing.T) {
	const n, hsz, bs, steps = 6, 7, 72, 12 // 72 rows: two full blocks and a ragged one
	hams := []struct {
		prefix string
		h      hamiltonian.Hamiltonian
	}{
		{"", hamiltonian.RandomTIM(n, rng.New(301))},
		{"qubo/", hamiltonian.RandomQUBO(n, rng.New(310))},
	}
	type family struct {
		name  string
		build func() (Model, sampler.Sampler)
	}
	families := []family{
		{"made", func() (Model, sampler.Sampler) {
			m := nn.NewMADE(n, hsz, rng.New(302))
			return m, sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(303))
		}},
		{"nade", func() (Model, sampler.Sampler) {
			m := nn.NewNADE(n, hsz, rng.New(304))
			return m, sampler.NewAutoBatched(n, m, 1, rng.New(305))
		}},
		{"rbm", func() (Model, sampler.Sampler) {
			m := nn.NewRBM(n, hsz, rng.New(308))
			return m, sampler.NewMCMC(m, sampler.MCMCConfig{Chains: 2, BurnIn: 20}, rng.New(309))
		}},
		{"rbm-gibbs", func() (Model, sampler.Sampler) {
			m := nn.NewRBM(n, hsz, rng.New(308))
			return m, sampler.NewGibbs(m, sampler.MCMCConfig{Chains: 2, BurnIn: 5}, rng.New(309))
		}},
	}
	type rule struct {
		name string
		opt  func() optimizer.Optimizer
		sr   func() *optimizer.SR
	}
	newSR := func(k optimizer.SolverKind) func() *optimizer.SR {
		return func() *optimizer.SR {
			sr := optimizer.NewSR(1e-3)
			sr.Solver = k
			return sr
		}
	}
	sgd := func() optimizer.Optimizer { return optimizer.NewSGD(0.1) }
	rules := []rule{
		{"reinforce", func() optimizer.Optimizer { return optimizer.NewAdam(0.02) }, func() *optimizer.SR { return nil }},
		{"sr-cg", sgd, newSR(optimizer.SolverCG)},
		{"sr-pipelined", sgd, newSR(optimizer.SolverPipelined)},
	}
	for _, hc := range hams {
		for _, f := range families {
			for _, ru := range rules {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s%s/%s/w%d", hc.prefix, f.name, ru.name, workers), func(t *testing.T) {
						rm, rs := f.build()
						ref := newOracle(hc.h, rm, rs, ru.opt(), ru.sr(), bs)
						m, s := f.build()
						tr := New(hc.h, m, s, ru.opt(), Config{BatchSize: bs, Workers: workers, SR: ru.sr()})
						for i := 0; i < steps; i++ {
							want, got := ref.step(), tr.Step()
							if got != want {
								t.Fatalf("step %d: shipped %+v != oracle %+v", i+1, got, want)
							}
							pw, pg := rm.Params(), m.Params()
							for j := range pw {
								if pg[j] != pw[j] {
									t.Fatalf("step %d: param %d shipped %v != oracle %v", i+1, j, pg[j], pw[j])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestSerialSRSolveAllocatesNothing is the regression test for the serial
// trainer's SR solve ignoring Config.Workers: SR.Precondition built a fresh
// operator (obar, sweep output, per-sample dots) every step and swept it on
// every core. The step now owns one operator at the trainer's worker count,
// so at Workers 1 the warmed solve — operator set-up plus PreconditionOp —
// allocates nothing.
func TestSerialSRSolveAllocatesNothing(t *testing.T) {
	const n = 6
	h := hamiltonian.RandomTIM(n, rng.New(311))
	m := nn.NewMADE(n, 7, rng.New(312))
	tr := New(h, m, sampler.NewAutoBatched(m.NumSites(), m, 1, rng.New(313)), optimizer.NewSGD(0.1),
		Config{BatchSize: 64, Workers: 1, SR: optimizer.NewSR(1e-3)})
	tr.Train(3, nil)
	s := tr.step
	grad, osum := tensor.Vector(s.pack.Section(0)), tensor.Vector(s.pack.Section(1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.precondition(grad, osum); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed serial SR solve allocates %v times per step, want 0", allocs)
	}
}
