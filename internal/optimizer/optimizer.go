// Package optimizer implements the three parameter-update rules the paper
// evaluates: plain SGD, Adam, and stochastic reconfiguration (SR) — the
// quantum natural gradient — which preconditions gradients with the Fisher
// information matrix estimated from per-sample log-derivatives (Eq. 5).
package optimizer

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// Optimizer applies an in-place parameter update from a gradient estimate.
type Optimizer interface {
	// Step updates params given the gradient of the loss (descent
	// direction is -grad).
	Step(params, grad tensor.Vector)
	// Name identifies the rule in experiment tables.
	Name() string
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      tensor.Vector
}

// NewSGD returns plain SGD with the given learning rate (the paper uses
// 0.1).
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (s *SGD) Step(params, grad tensor.Vector) {
	if s.Momentum == 0 {
		params.AXPY(-s.LR, grad)
		return
	}
	if s.vel == nil {
		s.vel = tensor.NewVector(len(params))
	}
	for i := range params {
		s.vel[i] = float64(s.Momentum*s.vel[i]) + grad[i]
		params[i] -= float64(s.LR * s.vel[i])
	}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "SGD" }

// Adam's standard moment decay rates and denominator guard. They are typed
// float64 constants on purpose: Go folds constant expressions exactly, so an
// untyped 1 - 0.9 would be float64(0.1), while 1 - beta1 here is the
// subtraction of the rounded float64 values, as at run time.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// Adam is the Adam optimizer with standard defaults (beta1=0.9,
// beta2=0.999, eps=1e-8); the paper's default learning rate is 0.01.
type Adam struct {
	LR   float64
	m, v tensor.Vector
	t    int
}

// NewAdam returns Adam with standard moment decay rates.
func NewAdam(lr float64) *Adam { return &Adam{LR: lr} }

// Step implements Optimizer.
func (a *Adam) Step(params, grad tensor.Vector) {
	if a.m == nil {
		a.m = tensor.NewVector(len(params))
		a.v = tensor.NewVector(len(params))
	}
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for i := range params {
		g := grad[i]
		a.m[i] = float64(beta1*a.m[i]) + float64((1-beta1)*g)
		a.v[i] = float64(beta2*a.v[i]) + float64((1-beta2)*g*g)
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + eps)
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "ADAM" }

// SolverKind selects the conjugate-gradient variant behind an SR solve.
type SolverKind int

const (
	// SolverCG is classic conjugate gradients (SolveFisherCG): in a
	// distributed group it blocks on one collective per iteration at the
	// point of maximal dependency.
	SolverCG SolverKind = iota
	// SolverPipelined is Gropp's overlapped variant
	// (SolveFisherPipelinedCG): every per-iteration collective is
	// non-blocking, hidden behind the recurrence updates. Same traffic
	// within one extra operator application per solve; identical
	// arithmetic whether run serially or on any number of ranks.
	SolverPipelined
)

// String names the solver for flags and experiment tables.
func (k SolverKind) String() string {
	if k == SolverPipelined {
		return "pipelined"
	}
	return "cg"
}

// SR preconditions a gradient with the regularized Fisher matrix
// S = E[O O^T] - E[O] E[O]^T (O_k = grad log psi(x_k)), solving
// (S + lambda I) delta = g matrix-free with conjugate gradients. The result
// feeds a base optimizer (the paper pairs SR with SGD, lr 0.1, lambda 1e-3).
type SR struct {
	Lambda  float64
	Tol     float64
	MaxIter int
	// Solver selects the CG variant: SolverCG (default) or
	// SolverPipelined. In a distributed group every replica must carry the
	// same kind — the solvers issue different collective schedules.
	Solver SolverKind
	delta  tensor.Vector // warm start across iterations
	last   CGResult
	work   cgWork // solver scratch; not state (Clone/CaptureState skip it)
}

// maxStepNorm caps ||delta||: with small lambda the solve can amplify
// gradient components lying in the Fisher matrix's near-null space by up to
// 1/lambda, which blows up training when the sample covariance is
// rank-deficient (correlated MCMC batches). The cap is conservative and
// only engages on pathological solves.
const maxStepNorm float64 = 100

// NewSR returns an SR preconditioner with the paper's regularization.
func NewSR(lambda float64) *SR {
	return &SR{Lambda: lambda, Tol: 1e-6, MaxIter: 200}
}

// Precondition solves (S + lambda I) delta = grad where S is estimated from
// the per-sample log-derivative batch ows (one row per sample, dim =
// len(grad)), through a freshly built serial operator swept on one
// goroutine. The returned slice is reused across calls as a warm start. The
// training step does not come through here: it keeps one operator for the
// whole run and calls PreconditionOp.
func (s *SR) Precondition(ows *tensor.Batch, grad tensor.Vector) tensor.Vector {
	return s.PreconditionOp(NewBatchFisher(ows, s.Lambda, 1), grad)
}

// PreconditionOp solves (S + lambda I) delta = grad through an arbitrary
// FisherOp — the entry point of the training step, whose ShardedFisher
// spans the O_k rows of every rank and performs one collective per CG
// iteration. The returned warm-start delta is reused across calls; in a
// multi-rank group every rank's SR instance must carry identical (Lambda,
// Tol, MaxIter, Solver) so the lockstep CG takes identical branches
// everywhere.
func (s *SR) PreconditionOp(op FisherOp, grad tensor.Vector) tensor.Vector {
	d := op.Dim()
	if len(grad) != d {
		panic("optimizer: SR dimension mismatch")
	}
	if s.delta == nil || len(s.delta) != d {
		s.delta = tensor.NewVector(d)
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	if sp, ok := op.(SplitFisherOp); ok && s.Solver == SolverPipelined {
		s.last = s.work.solvePipelinedCG(sp, grad, s.delta, s.Tol, maxIter)
	} else {
		// Classic CG; also the fallback for ops that cannot split their
		// application at the synchronization point.
		s.last = s.work.solveCG(op, grad, s.delta, s.Tol, maxIter)
	}
	if n := s.delta.Norm2(); n > maxStepNorm {
		s.delta.Scale(maxStepNorm / n)
	}
	return s.delta
}

// Clone returns a fresh SR with the same configuration and no solver state
// (cold warm-start, zeroed statistics). Distributed replicas each hold a
// private clone so their warm-start vectors evolve independently while the
// identical configuration keeps the lockstep CG branch-consistent.
func (s *SR) Clone() *SR {
	return &SR{Lambda: s.Lambda, Tol: s.Tol, MaxIter: s.MaxIter, Solver: s.Solver}
}

// LastSolve reports the CG result of the most recent Precondition call.
func (s *SR) LastSolve() CGResult { return s.last }

// DenseFisher materializes S + lambda I for validation in tests.
func (s *SR) DenseFisher(ows *tensor.Batch) []float64 {
	d := ows.Dim
	bs := float64(ows.N)
	obar := tensor.NewVector(d)
	ows.AddWeightedRows(obar, nil, 0, d)
	obar.Scale(1 / bs)
	m := make([]float64, d*d)
	for k := 0; k < ows.N; k++ {
		ok := ows.Sample(k)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				m[i*d+j] += ok[i] * ok[j] / bs
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			m[i*d+j] -= float64(obar[i] * obar[j])
		}
		m[i*d+i] += s.Lambda
	}
	return m
}
