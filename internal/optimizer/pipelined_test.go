package optimizer

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// randFisherOp builds a serial Fisher operator over a random O_k batch.
func randFisherOp(seed uint64, bs, d int, lambda float64) (FisherOp, *tensor.Batch) {
	r := rng.New(seed)
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	return NewBatchFisher(ows, lambda, 1), ows
}

// TestSolveFisherPipelinedCGMatchesClassic checks that the pipelined solve
// reaches the classic solution on random Fisher systems across dimensions,
// with iteration counts within one — Gropp's recurrences are the same
// Krylov process with a different reduction schedule.
func TestSolveFisherPipelinedCGMatchesClassic(t *testing.T) {
	for _, d := range []int{1, 2, 7, 19, 40} {
		bs := 2*d + 5
		op, _ := randFisherOp(uint64(100+d), bs, d, 1e-2)
		b := tensor.NewVector(d)
		rng.New(uint64(200+d)).FillUniform(b, -1, 1)

		xC := tensor.NewVector(d)
		xP := tensor.NewVector(d)
		resC := SolveFisherCG(op, b, xC, 1e-13, 50*d)
		resP := SolveFisherPipelinedCG(op.(SplitFisherOp), b, xP, 1e-13, 50*d)
		if !resC.Converged || !resP.Converged {
			t.Fatalf("d=%d: classic converged=%v pipelined converged=%v", d, resC.Converged, resP.Converged)
		}
		if diff := resP.Iterations - resC.Iterations; diff < -1 || diff > 1 {
			t.Fatalf("d=%d: pipelined %d iterations vs classic %d", d, resP.Iterations, resC.Iterations)
		}
		for i := range xC {
			if diff := math.Abs(xC[i] - xP[i]); diff > 1e-10 {
				t.Fatalf("d=%d: solutions differ at %d by %g", d, i, diff)
			}
		}
	}
}

// TestSRSolverKindDispatch checks the SR knob end to end: both kinds solve
// the same preconditioning problem to the same answer, Clone preserves the
// kind, and LastSolve reports a real solve either way.
func TestSRSolverKindDispatch(t *testing.T) {
	const d, bs = 12, 30
	_, ows := randFisherOp(31, bs, d, 1e-3)
	grad := tensor.NewVector(d)
	rng.New(32).FillUniform(grad, -1, 1)

	classic := NewSR(1e-3)
	classic.Tol = 1e-12
	pipelined := classic.Clone()
	pipelined.Solver = SolverPipelined
	if clone := pipelined.Clone(); clone.Solver != SolverPipelined {
		t.Fatal("Clone dropped the solver kind")
	}
	if SolverPipelined.String() != "pipelined" || SolverCG.String() != "cg" {
		t.Fatalf("unexpected solver names %q, %q", SolverPipelined, SolverCG)
	}

	dC := append(tensor.Vector(nil), classic.Precondition(ows, grad)...)
	dP := append(tensor.Vector(nil), pipelined.Precondition(ows, grad)...)
	if classic.LastSolve().Iterations == 0 || pipelined.LastSolve().Iterations == 0 {
		t.Fatal("solver reported zero iterations")
	}
	for i := range dC {
		if diff := math.Abs(dC[i] - dP[i]); diff > 1e-9 {
			t.Fatalf("preconditioned steps differ at %d by %g", i, diff)
		}
	}
}

// corruptingOp wraps a SplitFisherOp and flips one reduced output value in
// a chosen application — inside the Start/Finish window, i.e. exactly where
// a broken non-blocking collective (a corrupted handle, a wait on stale
// bytes) would surface. It proves the equivalence comparisons have teeth:
// if the pipelined solve silently ignored the reduced bytes, the corruption
// would change nothing.
type corruptingOp struct {
	inner     SplitFisherOp
	applies   int
	corruptAt int // 1-based application index to corrupt; 0 = never
}

func (c *corruptingOp) Dim() int { return c.inner.Dim() }
func (c *corruptingOp) ApplyDot(v, out tensor.Vector) float64 {
	c.StartApply(v)
	return c.FinishApply(v, out)
}
func (c *corruptingOp) StartApply(v tensor.Vector) { c.inner.StartApply(v) }
func (c *corruptingOp) FinishApply(v, out tensor.Vector) float64 {
	dot := c.inner.FinishApply(v, out)
	c.applies++
	if c.applies == c.corruptAt {
		out[0] += 1e-7
	}
	return dot
}

// TestPipelinedSolveComparisonHasTeeth injects a perturbation into the
// reduced Fisher product of one mid-solve application and demands the
// solution drift past the tolerance the equivalence tests enforce.
func TestPipelinedSolveComparisonHasTeeth(t *testing.T) {
	const d, bs = 15, 40
	op, _ := randFisherOp(41, bs, d, 1e-3)
	b := tensor.NewVector(d)
	rng.New(42).FillUniform(b, -1, 1)

	clean := tensor.NewVector(d)
	SolveFisherPipelinedCG(op.(SplitFisherOp), b, clean, 1e-13, 500)

	dirty := tensor.NewVector(d)
	SolveFisherPipelinedCG(&corruptingOp{inner: op.(SplitFisherOp), corruptAt: 3}, b, dirty, 1e-13, 500)

	var maxDiff float64
	for i := range clean {
		if diff := math.Abs(clean[i] - dirty[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	if maxDiff <= 1e-10 {
		t.Fatalf("corrupted in-flight application changed the solution by only %g; the equivalence bound would not catch it", maxDiff)
	}
}

// TestPipelinedSolveBreakdown drives the pipelined Fisher solve into the
// delta <= 0 guard with a "Fisher" operator of negative curvature and
// checks it bails out finitely, like SolveFisherCG.
func TestPipelinedSolveBreakdown(t *testing.T) {
	neg := &negOp{d: 4}
	b := tensor.Vector{1, 2, 3, 4}
	xC := tensor.NewVector(4)
	xP := tensor.NewVector(4)
	resC := SolveFisherCG(neg, b, xC, 1e-12, 20)
	resP := SolveFisherPipelinedCG(neg, b, xP, 1e-12, 20)
	for _, res := range []struct {
		name string
		conv bool
		r    float64
	}{{"classic", resC.Converged, resC.Residual}, {"pipelined", resP.Converged, resP.Residual}} {
		if res.conv {
			t.Fatalf("%s: negative-curvature solve reported converged", res.name)
		}
		if math.IsNaN(res.r) || math.IsInf(res.r, 0) {
			t.Fatalf("%s: non-finite residual %v", res.name, res.r)
		}
	}
	if resC.Iterations != resP.Iterations {
		t.Fatalf("breakdown at different iterations: classic %d, pipelined %d", resC.Iterations, resP.Iterations)
	}
}

// negOp is -I as a SplitFisherOp.
type negOp struct{ d int }

func (n *negOp) Dim() int { return n.d }
func (n *negOp) ApplyDot(v, out tensor.Vector) float64 {
	n.StartApply(v)
	return n.FinishApply(v, out)
}
func (n *negOp) StartApply(tensor.Vector) {}
func (n *negOp) FinishApply(v, out tensor.Vector) float64 {
	for i := range v {
		out[i] = -v[i]
	}
	return v.Dot(out)
}
