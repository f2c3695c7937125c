// Matrix-free Fisher operator machinery behind stochastic reconfiguration.
//
// The SR solve is conjugate gradients on (S + lambda I) delta = g where
// S = E[O O^T] - E[O] E[O]^T is estimated from per-sample log-derivative
// rows O_k. Everything CG touches is either a replicated d-vector or a batch
// sum over the O_k rows, so the solve distributes naturally when the rows
// are sharded across replicas: each replica forms its local partial sums and
// one all-reduce per CG iteration combines them (the formulation of
// Neuscamman, Umrigar & Chan, arXiv:1108.0900). The FisherOp interface
// carries exactly that split: ApplyDot produces both the operator output and
// the p.Ap inner product from one pass over the rows, so a distributed
// implementation needs a single collective per call. There is one
// implementation, ShardedFisher, over the ranks of a comm group; the serial
// operator is its one-shard case on a 1-rank group.
package optimizer

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// FisherOp applies the regularized Fisher operator A = S + lambda I without
// materializing it. Implementations are stateful per solve (they hold the
// O_k rows and the batch mean of O) but must not retain v or out across
// calls.
type FisherOp interface {
	// Dim returns the parameter dimension d.
	Dim() int
	// ApplyDot computes out = A v and returns dot(v, out), both assembled
	// from the same one-pass batch statistics. Distributed implementations
	// combine their local partials with exactly one collective per call.
	ApplyDot(v, out tensor.Vector) float64
}

// SplitFisherOp is a FisherOp whose application can be cut at the
// synchronization point: StartApply performs the local O_k sweep and kicks
// off the (non-blocking) reduction of the one-pass statistics; FinishApply
// waits for the reduced bytes and assembles out = A v, returning dot(v, out)
// exactly as ApplyDot would. Between the two calls the reduction is in
// flight and the caller overlaps independent local work — the hook the
// pipelined CG solve is built on. Calls must strictly alternate
// (Start, Finish, Start, ...) with the same v, and v and the operator's
// internal buffers must not be touched while an application is open.
// Serial implementations split at the same point with nothing in flight,
// so the arithmetic — and therefore the trained bytes — are identical.
type SplitFisherOp interface {
	FisherOp
	StartApply(v tensor.Vector)
	FinishApply(v, out tensor.Vector) float64
}

// FisherPartial performs the local sweep over the O_k rows for a
// Fisher-vector product, writing into acc (length d+1)
//
//	acc[:d] = sum_k O_k (O_k . v)   and   acc[d] = sum_k (O_k . v)^2.
//
// The trailing scalar is the same-pass partial of the p.Ap dot product CG
// needs, which is why distributed SR can pack it alongside the vector in a
// single all-reduce (acc can alias the packed collective buffer directly).
// tbuf is an N-length workspace for the per-sample dot products.
//
// The sweep is bitwise independent of the worker count: pass 1 computes
// t_k = O_k . v in parallel over rows (whole quads, each t_k by exactly one
// worker), pass 2 computes acc[i] = sum_k t_k O_ki in parallel over COLUMNS,
// so each element is accumulated in sample order by exactly one worker, and
// the trailing scalar is reduced serially in sample order. Both passes run
// the row-blocked tensor.Batch kernels, which take four rows at a time
// across independent outputs and never split an accumulation chain — the
// bytes are those of a per-row Dot / AXPY loop. Worker partitioning
// therefore only changes who computes each independent element — the
// invariance that lets two-level replica x worker trainers keep bit-exact
// parity with any other worker configuration.
func FisherPartial(ows *tensor.Batch, v tensor.Vector, acc, tbuf []float64, workers int) {
	d := ows.Dim
	if workers == 1 {
		// No loop bodies on the serial path: a closure handed to
		// parallel.For escapes, and a warmed serial solve allocates nothing.
		ows.RowDots(tbuf, v, 0, ows.N)
		clear(acc[:d])
		ows.AddWeightedRows(acc[:d], tbuf, 0, d)
	} else {
		parallel.For((ows.N+3)/4, workers, func(lo, hi int) {
			ows.RowDots(tbuf, v, 4*lo, min(4*hi, ows.N))
		})
		parallel.For(d, workers, func(lo, hi int) {
			clear(acc[lo:hi])
			ows.AddWeightedRows(acc[:d], tbuf, lo, hi)
		})
	}
	var s float64
	for k := 0; k < ows.N; k++ {
		s += float64(tbuf[k] * tbuf[k])
	}
	acc[d] = s
}

// FisherFinish turns globally reduced one-pass statistics (the output of
// FisherPartial, summed over all replicas) into the operator application
//
//	out = acc[:d]/B - (obar.v) obar + lambda v
//
// and returns dot(v, out) assembled from the packed scalar:
// acc[d]/B - (obar.v)^2 + lambda (v.v). The dot is the variance form of
// p.Ap (non-negative up to rounding for lambda > 0), so CG's positive-
// definiteness guard keeps working. Every rank of a distributed group
// executes this on bit-identical reduced bytes, producing bit-identical
// outputs.
func FisherFinish(acc []float64, obar, v, out tensor.Vector, lambda, batchN float64) float64 {
	d := len(out)
	ov := obar.Dot(v)
	for i := 0; i < d; i++ {
		out[i] = acc[i]/batchN - float64(ov*obar[i]) + float64(lambda*v[i])
	}
	return acc[d]/batchN - float64(ov*ov) + float64(lambda*v.Dot(v))
}

// ShardedFisher is the Fisher operator over O_k rows sharded across the ranks
// of a comm group: it holds one rank's private rows and combines the one-pass
// partial statistics of every rank with a single packed ring all-reduce per
// application, so all ranks run the CG recurrence in lockstep on
// bit-identical reduced bytes. On a 1-rank group the all-reduce is the
// identity and the operator is the serial one (see NewBatchFisher). Its
// buffers are allocated once; a warmed solve allocates nothing.
type ShardedFisher struct {
	cm      *comm.Comm
	ows     *tensor.Batch
	pack    *comm.Packed // [ partial Fisher-vector product (d) | partial p.Ap scalar (1) ]
	tbuf    []float64    // per-sample dot products of this rank's rows
	obar    tensor.Vector
	lambda  float64
	batchN  float64 // global sample count: ranks x rows per rank
	workers int
	applies int64
	handle  *comm.Handle // in-flight non-blocking reduction (pipelined solve)
	// err is the sticky failure of a mid-solve collective. The FisherOp
	// interface has no error return, so a failed reduction is surfaced by
	// bailing the CG recurrence instead: ApplyDot/FinishApply zero out and
	// return -1, which classic CG treats as loss of positive definiteness
	// (pap <= 0) and the pipelined solve hits one iteration later through
	// delta = p.Dot(s) = 0 on the zeroed direction product. -1, not NaN —
	// NaN compares false against everything and would run the solve to
	// maxIter. The caller inspects Err after the solve and propagates it
	// before any parameter update.
	err error
}

// NewShardedFisher builds rank cm's operator over its private rows ows
// (every rank of the group must hold the same number of rows). workers
// bounds the row-sweep parallelism of an application. SetMean must install
// the batch mean of O before the first solve.
func NewShardedFisher(cm *comm.Comm, ows *tensor.Batch, lambda float64, workers int) *ShardedFisher {
	return &ShardedFisher{cm: cm, ows: ows, pack: comm.NewPacked(ows.Dim, 1),
		tbuf: make([]float64, ows.N), obar: tensor.NewVector(ows.Dim),
		lambda: lambda, batchN: float64(cm.Size() * ows.N), workers: workers}
}

// NewBatchFisher builds the serial Fisher operator over a full O_k batch —
// the one-shard case of ShardedFisher on a private 1-rank group — computing
// the batch mean obar up front. workers bounds the row sweep parallelism
// inside ApplyDot.
func NewBatchFisher(ows *tensor.Batch, lambda float64, workers int) FisherOp {
	f := NewShardedFisher(comm.NewGroup(1).Rank(0), ows, lambda, workers)
	ows.AddWeightedRows(f.obar, nil, 0, ows.Dim)
	f.SetMean(f.obar)
	return f
}

// SetMean installs obar = osum/B from the sum of the O_k rows of EVERY rank
// (already reduced across the group), B being the global sample count.
func (f *ShardedFisher) SetMean(osum tensor.Vector) {
	copy(f.obar, osum)
	f.obar.Scale(1 / f.batchN)
}

// Err returns the first collective failure of any application, nil on a
// healthy operator. A failed operator stays failed.
func (f *ShardedFisher) Err() error { return f.err }

// Applies counts the Fisher collectives this rank has issued (one per
// ApplyDot or StartApply).
func (f *ShardedFisher) Applies() int64 { return f.applies }

// Dim implements FisherOp.
func (f *ShardedFisher) Dim() int { return f.ows.Dim }

// fail records the first collective failure and poisons the operator
// output: out is zeroed (garbage from a degraded reduction must not leak
// NaNs into the CG vectors) and the returned -1 makes the solver bail.
func (f *ShardedFisher) fail(err error, out tensor.Vector) float64 {
	if f.err == nil {
		f.err = err
	}
	out.Fill(0)
	return -1
}

// ApplyDot implements FisherOp: the local sweep writes straight into the
// packed collective buffer and one BLOCKING all-reduce combines it.
func (f *ShardedFisher) ApplyDot(v, out tensor.Vector) float64 {
	if f.err != nil {
		return f.fail(f.err, out)
	}
	FisherPartial(f.ows, v, f.pack.Buf(), f.tbuf, f.workers)
	if err := f.pack.AllReduce(f.cm); err != nil {
		return f.fail(err, out)
	}
	f.applies++
	return FisherFinish(f.pack.Buf(), f.obar, v, out, f.lambda, f.batchN)
}

// StartApply implements SplitFisherOp: the local sweep writes the packed
// partials and the ring reduction is launched NON-blocking, so the
// pipelined solve overlaps its recurrence updates with the in-flight
// collective. The packed buffer is owned by the collective until
// FinishApply. On a failed operator the launch is skipped (handle nil);
// FinishApply reports the bail.
func (f *ShardedFisher) StartApply(v tensor.Vector) {
	if f.err != nil {
		f.handle = nil
		return
	}
	FisherPartial(f.ows, v, f.pack.Buf(), f.tbuf, f.workers)
	f.handle = f.pack.IAllReduce(f.cm)
	f.applies++
}

// FinishApply implements SplitFisherOp: it waits for the reduction started
// by StartApply and assembles the operator output from the globally reduced
// bytes — bit-identical on every rank, exactly as the blocking path. A
// reduction that failed in flight bails the solve like ApplyDot does.
func (f *ShardedFisher) FinishApply(v, out tensor.Vector) float64 {
	if f.handle == nil {
		return f.fail(f.err, out)
	}
	err := f.handle.Wait()
	f.handle = nil
	if err != nil {
		return f.fail(err, out)
	}
	return FisherFinish(f.pack.Buf(), f.obar, v, out, f.lambda, f.batchN)
}

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ||Ax-b|| / ||b||
	Converged  bool
}

// SolveFisherCG runs conjugate gradients on A x = b through a FisherOp,
// starting from the current contents of x. It mirrors referenceCG of
// cg_test.go exactly (same update order, same stopping rules) but sources
// the p.Ap inner product from ApplyDot, so a distributed op pays one
// collective per iteration instead of two. All control flow depends only on
// replicated values, so every rank of a distributed group takes identical
// branches and issues the same number of collectives — the lockstep
// property the ring all-reduce requires. This entry point allocates the
// solve's d-vectors per call; SR.PreconditionOp runs the same solve on
// workspace it keeps.
func SolveFisherCG(op FisherOp, b, x tensor.Vector, tol float64, maxIter int) CGResult {
	return new(cgWork).solveCG(op, b, x, tol, maxIter)
}

// cgWork is the d-vector scratch of the two Fisher-CG solvers, grown on
// demand. Every vector is fully written before it is read in a solve, so
// nothing carries over between solves: it is workspace, not solver state.
type cgWork struct{ buf []float64 }

// vectors returns four n-vectors carved out of the workspace.
func (c *cgWork) vectors(n int) (r, p, s, w tensor.Vector) {
	if cap(c.buf) < 4*n {
		c.buf = make([]float64, 4*n)
	}
	return c.buf[:n], c.buf[n : 2*n], c.buf[2*n : 3*n], c.buf[3*n : 4*n]
}

// cgTiny is 2^-511, the square root of the smallest normal float64. A
// component below it no longer reaches any inner product of the solve (its
// square is not a normal number), yet it never dies on its own: a parameter
// no sample of the batch depends on sees A = lambda*I, its warm-started x, r
// and p shrink by a common factor every iteration, and gradual underflow
// pins them at a few subnormal ulps for good. Each one then costs a
// microcode assist per multiply in the O-matrix sweeps, and a step gets
// slower the longer a run has trained. The solvers therefore store such a
// component as the zero it stands for.
const cgTiny = 0x1p-511

func flushTiny(v float64) float64 {
	if math.Abs(v) < cgTiny {
		return 0
	}
	return v
}

func (c *cgWork) solveCG(op FisherOp, b, x tensor.Vector, tol float64, maxIter int) CGResult {
	r, p, ap, _ := c.vectors(len(b))

	op.ApplyDot(x, ap)
	var bnorm float64
	for i := range b {
		r[i] = flushTiny(b[i] - ap[i])
		bnorm += float64(b[i] * b[i])
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}
	}
	copy(p, r)
	rr := r.Dot(r)
	for k := 0; k < maxIter; k++ {
		if math.Sqrt(rr)/bnorm < tol {
			return CGResult{Iterations: k, Residual: math.Sqrt(rr) / bnorm, Converged: true}
		}
		pap := op.ApplyDot(p, ap)
		if pap <= 0 {
			// Not positive definite along p; bail out with best iterate.
			return CGResult{Iterations: k, Residual: math.Sqrt(rr) / bnorm, Converged: false}
		}
		alpha := rr / pap
		for i := range x {
			x[i] = flushTiny(x[i] + float64(alpha*p[i]))
			r[i] = flushTiny(r[i] - float64(alpha*ap[i]))
		}
		rrNew := r.Dot(r)
		beta := rrNew / rr
		for i := range p {
			p[i] = flushTiny(r[i] + float64(beta*p[i]))
		}
		rr = rrNew
	}
	return CGResult{Iterations: maxIter, Residual: math.Sqrt(rr) / bnorm, Converged: math.Sqrt(rr)/bnorm < tol}
}

// SolveFisherPipelinedCG runs Gropp's overlapped conjugate-gradient variant
// on A x = b through a SplitFisherOp: the Krylov recurrence of classic CG
// (SolveFisherCG), restructured so that s = A p is carried by an
// update instead of a product and each reduction is detached from its
// consumer — same solution, iteration counts within one of CG's, and the
// same best-effort return on a non-positive p.Ap curvature. The CG vectors
// are replicated on every rank of a distributed group, so the inner products
// are free local arithmetic and the ONLY synchronization per iteration is
// the operator application itself — which this solver issues through
// StartApply/FinishApply so the ring reduction for iteration k's
// Fisher-vector product is in flight while the beta and search-direction
// recurrences of the same iteration run. Classic SolveFisherCG blocks on its
// collective at the point of maximal dependency (the p.Ap it needs
// immediately); here every collective is non-blocking and the solve issues
// ZERO blocking collectives, paying max(sweep-reduction, recurrence) per
// iteration instead of their sum.
//
// All control flow depends only on replicated values, so every rank takes
// identical branches and issues the same collectives in the same order —
// the lockstep property the ring requires. The cost relative to classic is
// one extra operator application per solve (s0 = A p0 is computed fresh
// rather than inherited), after which s = A p is maintained by the
// recurrence s <- w + beta s with w = A r the fresh product. Like
// SolveFisherCG this entry point allocates its vectors per call.
func SolveFisherPipelinedCG(op SplitFisherOp, b, x tensor.Vector, tol float64, maxIter int) CGResult {
	return new(cgWork).solvePipelinedCG(op, b, x, tol, maxIter)
}

func (c *cgWork) solvePipelinedCG(op SplitFisherOp, b, x tensor.Vector, tol float64, maxIter int) CGResult {
	// s = A p is maintained by recurrence; w = A r is the fresh product of
	// each iteration.
	r, p, s, w := c.vectors(len(b))

	// r0 = b - A x0; ||b|| is formed while the reduction is in flight.
	op.StartApply(x)
	bnorm := math.Sqrt(b.Dot(b))
	op.FinishApply(x, w)
	for i := range b {
		r[i] = flushTiny(b[i] - w[i])
	}
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}
	}
	copy(p, r)
	// s0 = A p0, overlapped with gamma0 = (r0, r0).
	op.StartApply(p)
	gamma := r.Dot(r)
	op.FinishApply(p, s)

	for k := 0; k < maxIter; k++ {
		if math.Sqrt(gamma)/bnorm < tol {
			return CGResult{Iterations: k, Residual: math.Sqrt(gamma) / bnorm, Converged: true}
		}
		delta := p.Dot(s)
		if delta <= 0 {
			// Not positive definite along p; bail out with best iterate.
			return CGResult{Iterations: k, Residual: math.Sqrt(gamma) / bnorm, Converged: false}
		}
		alpha := gamma / delta
		for i := range x {
			x[i] = flushTiny(x[i] + float64(alpha*p[i]))
			r[i] = flushTiny(r[i] - float64(alpha*s[i]))
		}
		// Kick off the one fresh Fisher product of the iteration, then run
		// everything that does not depend on it — the residual norm, beta
		// and the direction update — inside the overlap window.
		op.StartApply(r)
		gammaNew := r.Dot(r)
		beta := gammaNew / gamma
		for i := range p {
			p[i] = flushTiny(r[i] + float64(beta*p[i]))
		}
		op.FinishApply(r, w)
		for i := range s {
			s[i] = flushTiny(w[i] + float64(beta*s[i]))
		}
		gamma = gammaNew
	}
	return CGResult{Iterations: maxIter, Residual: math.Sqrt(gamma) / bnorm, Converged: math.Sqrt(gamma)/bnorm < tol}
}
