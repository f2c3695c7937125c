package main

import (
	"fmt"
	"math"
	"runtime"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// driver names the top layer a workload enters the system through.
type driver int

const (
	driveCore  driver = iota // core.Trainer.Step, serial
	driveDist                // dist.Trainer.Step, SR, L=1 then L=2
	driveHTTP                // serve.NewHandler behind a loopback net/http server
	driveLocal               // serve.Server.LocalEnergy in process
)

// spec is one workload: the problem shape and how it is driven. BENCHMARK.json
// lists the gated ones under the same names and reasons; TestBenchmarkJSON
// keeps the two equal.
type spec struct {
	name, why string
	gated     bool // in BENCHMARK.json: the driver runs it and holds it to the bounds
	drive     driver
	ham       string // "tim" or "maxcut"
	family    string // "made" or "nade"
	n, h      int    // sites, hidden width h = 5 (ln n)^2
	batch     int    // training batch; rows per evaluation for serve
	workers   int    // trainer / replica / sampler workers; 0 = serve default
	warm      int    // untimed operations before the window, part of set-up
	settle    int    // further untimed training steps, not part of set-up (see runSettle)
	clients   int    // serve: closed-loop callers (connections for HTTP)
}

// two is min(nproc, 2): the parallel width of the workloads that fan out.
func two() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// hidden is the paper's latent-size rule for autoregressive models.
func hidden(n int) int {
	l := math.Log(float64(n))
	return int(math.Round(5 * l * l))
}

// workloads returns the six workloads at full or smoke scale. Smoke keeps
// every code path and shrinks every size so the whole set plus its traced
// twin runs in a few seconds inside `go test`.
//
// Four are gated. The driver's time limit covers all its runs of all gated
// workloads, and on its shared host only a window of 20 s or more finds the
// program's own speed run after run: six gated workloads would leave each
// run about 14 s, four leave 24 s. train_tim_nade and serve_fold_single run
// in `go run ./bench` and by name like the others, and no bound holds them.
//
// train_maxcut_made is Max-Cut at n=64 with one worker, not n=128 with two:
// the gated numbers are taken on one thread (see runWorkload), and at n=128
// the gradient phase streams 31 MB slabs of O-rows through a cache shared
// with the host's other tenants, which spread op_ms_p10 twice as far over
// ten runs (11 % against 6 %) as the 11 MB slabs of n=64 in the same hour.
// The traced run's parallel.w2_over_w1 is where the fan-out shows.
func workloads(smoke bool) []spec {
	ws := []spec{
		{name: "train_tim_made", gated: true, drive: driveCore, ham: "tim", family: "made", n: 32, batch: 1024, workers: 1, warm: 5, settle: 25,
			why: "default user path, 1 thread: n flip evaluations per sample make nn flip kernels and tensor column GEMMs ~70% of the step"},
		{name: "train_tim_nade", drive: driveCore, ham: "tim", family: "nade", n: 32, batch: 1024, workers: 1, warm: 3, settle: 20,
			why: "same layer, other family: a NADE kernel fix must show here and must not move train_tim_made"},
		{name: "train_maxcut_made", gated: true, drive: driveCore, ham: "maxcut", family: "made", n: 64, batch: 1024, workers: 1, warm: 4, settle: 20,
			why: "diagonal Hamiltonian bypasses the flip path: sampling, GradLogPsiBatch and AddWeightedRows carry ~90% at 2x the n, 1 worker"},
		{name: "dist_tim_sr", gated: true, drive: driveDist, ham: "tim", family: "made", n: 16, batch: 512, workers: 1, warm: 5, settle: 30,
			why: "Fisher-CG is ~80% of the step and issues one collective per CG iteration: where optimizer, comm and dist show; two ranks, L=2"},
		{name: "serve_http_batch", gated: true, drive: driveHTTP, ham: "tim", family: "made", n: 16, h: 32, batch: 64, warm: 300, clients: two(),
			why: "what a vqmcd caller sees: HTTP + JSON + queue + eval of 64-row requests on 2 connections; the coalescer can only add latency"},
		{name: "serve_fold_single", drive: driveLocal, ham: "tim", family: "made", n: 16, h: 32, batch: 64, warm: 5000, clients: 64,
			why: "the regime the coalescer exists for: 64 closed-loop in-process callers, 1 row each, ~55 rows folded per dispatch, no HTTP"},
	}
	for i := range ws {
		s := &ws[i]
		if smoke {
			s.n, s.batch, s.warm, s.settle = s.n/4, s.batch/16, 2, min(s.settle, 2)
			if s.clients > 8 {
				s.clients = 8
			}
		}
		if s.h == 0 || smoke {
			s.h = hidden(s.n)
		}
	}
	return ws
}

// findSpec returns the named workload.
func findSpec(name string, smoke bool) (spec, error) {
	for _, s := range workloads(smoke) {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// model is what every driver and probe needs from a wavefunction family;
// *nn.MADE and *nn.NADE both provide it.
type model interface {
	core.Model
	nn.GradEvaluatorBuilder
	nn.BatchEvaluatorBuilder
	nn.BatchAncestralBuilder
}

// problem is everything generated from (spec, seed, instance): the
// Hamiltonian and the seeds of the parameter init, the sampler streams and
// the request bodies. The programs under test see only these generated
// inputs.
type problem struct {
	spec
	seed     uint64 // the run's seed and the instance number, mixed
	instance int
	ham      hamiltonian.Hamiltonian
}

// stream derives an independent seed for one purpose from the run seed.
func (p *problem) stream(purpose uint64) uint64 {
	return p.seed*0x9E3779B97F4A7C15 + purpose
}

const (
	streamInstance = iota + 1
	streamInit
	streamSampler
	streamRequests
	streamProbe
)

func newProblem(s spec, seed uint64, instance int) *problem {
	p := &problem{spec: s, seed: seed*8 + uint64(instance), instance: instance}
	r := rng.New(p.stream(streamInstance))
	if s.ham == "maxcut" {
		p.ham = hamiltonian.NewMaxCut(graph.RandomBernoulli(s.n, r))
	} else {
		p.ham = hamiltonian.RandomTIM(s.n, r)
	}
	return p
}

// newModel builds the wavefunction with the seed's initial parameters; every
// call returns bit-identical parameters, which dist replicas require.
func (p *problem) newModel() model {
	r := rng.New(p.stream(streamInit))
	if p.family == "nade" {
		return nn.NewNADE(p.n, p.h, r)
	}
	return nn.NewMADE(p.n, p.h, r)
}

// newSampler builds the batched ancestral sampler on stream r.
func (p *problem) newSampler(m model, workers int, r *rng.Rand) sampler.Sampler {
	return sampler.NewAutoBatched(p.n, m, workers, r)
}

// newOptimizer returns the workload's update rule: SGD 0.1 under SR (the
// paper's pairing) for the dist workload, Adam 0.01 otherwise.
func (p *problem) newOptimizer() optimizer.Optimizer {
	if p.drive == driveDist {
		return optimizer.NewSGD(0.1)
	}
	return optimizer.NewAdam(0.01)
}

// cgIters is the fixed CG budget of the dist workload's SR solves. With the
// default tolerance (1e-6) the warm-started solves took ~80 iterations while
// the model was still learning and 15 to 30 once it had converged onto a few
// configurations (a low-rank Fisher matrix), which moved the step time by
// half from seed to seed and within a run. A tolerance only an exactly
// solved system meets makes every solve run cgIters iterations: every step
// does the same work, four fifths of it Fisher-vector products.
const (
	cgIters = 40
	cgTol   = 1e-30
)

// newSR returns a fresh SR preconditioner (lambda 1e-3, cgIters iterations
// per solve) for the dist workload and nil for the others.
func (p *problem) newSR(solver optimizer.SolverKind) *optimizer.SR {
	if p.drive != driveDist {
		return nil
	}
	sr := optimizer.NewSR(1e-3)
	sr.Solver, sr.Tol, sr.MaxIter = solver, cgTol, cgIters
	return sr
}

// randomBatch fills a rows x n batch with uniform bits from stream r.
func (p *problem) randomBatch(rows int, r *rng.Rand) *sampler.Batch {
	b := sampler.NewBatch(rows, p.n)
	r.FillBits(b.Bits)
	return b
}
