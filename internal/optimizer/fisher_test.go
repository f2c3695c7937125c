package optimizer

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// TestFisherPartialWorkerInvariance pins the property the two-level
// distributed trainer depends on: the sweep output is bitwise identical for
// every worker count, because each output element is accumulated in sample
// order by exactly one worker.
func TestFisherPartialWorkerInvariance(t *testing.T) {
	r := rng.New(11)
	d, bs := 17, 29 // deliberately awkward sizes for the partitioner
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	v := tensor.NewVector(d)
	r.FillUniform(v, -1, 1)

	ref := make([]float64, d+1)
	tbuf := make([]float64, bs)
	FisherPartial(ows, v, ref, tbuf, 1)
	for _, w := range []int{2, 3, 5, 8, 64} {
		acc := make([]float64, d+1)
		FisherPartial(ows, v, acc, tbuf, w)
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("workers=%d: acc[%d] = %v, workers=1 gives %v (must be bitwise equal)", w, i, acc[i], ref[i])
			}
		}
	}
}

// TestFisherApplyDotConsistent checks that the scalar ApplyDot returns is
// the inner product of its two outputs (they are assembled from the same
// pass, so they must agree to rounding).
func TestFisherApplyDotConsistent(t *testing.T) {
	r := rng.New(12)
	d, bs := 10, 25
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	v := tensor.NewVector(d)
	r.FillUniform(v, -1, 1)
	op := NewBatchFisher(ows, 1e-3, 1)
	out := tensor.NewVector(d)
	got := op.ApplyDot(v, out)
	want := v.Dot(out)
	if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
		t.Fatalf("ApplyDot scalar %v != v.(Av) %v", got, want)
	}
}

// TestSolveFisherCGMatchesLinalgCG cross-validates the FisherOp-driven CG
// against the generic reference CG (cg_test.go) on the same SPD system.
func TestSolveFisherCGMatchesLinalgCG(t *testing.T) {
	r := rng.New(13)
	d, bs := 14, 40
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	b := tensor.NewVector(d)
	r.FillUniform(b, -1, 1)

	op := NewBatchFisher(ows, 1e-2, 1)
	x1 := tensor.NewVector(d)
	res1 := SolveFisherCG(op, b, x1, 1e-12, 500)

	mv := func(v, out []float64) {
		op.ApplyDot(tensor.Vector(v), tensor.Vector(out))
	}
	x2 := tensor.NewVector(d)
	res2 := referenceCG(mv, b, x2, 1e-12, 500)

	if !res1.Converged || !res2.Converged {
		t.Fatalf("CG did not converge: fisher %+v reference %+v", res1, res2)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9 {
			t.Fatalf("solutions differ at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// TestPreconditionOpMatchesPrecondition: routing a solve through an
// explicit serial FisherOp is bitwise the same computation as the
// convenience Precondition entry point.
func TestPreconditionOpMatchesPrecondition(t *testing.T) {
	r := rng.New(14)
	d, bs := 12, 30
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(d)
	r.FillUniform(grad, -1, 1)

	a := NewSR(1e-3)
	da := a.Precondition(ows, grad)
	b := a.Clone()
	db := b.PreconditionOp(NewBatchFisher(ows, b.Lambda, 0), grad)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("delta[%d]: Precondition %v != PreconditionOp %v", i, da[i], db[i])
		}
	}
	if a.LastSolve() != b.LastSolve() {
		t.Fatalf("solve stats differ: %+v vs %+v", a.LastSolve(), b.LastSolve())
	}
}

// TestSRClone: configuration copied, solver state not shared.
func TestSRClone(t *testing.T) {
	a := NewSR(1e-2)
	a.Tol = 1e-9
	a.MaxIter = 123
	r := rng.New(15)
	ows := tensor.NewBatch(20, 6)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(6)
	r.FillUniform(grad, -1, 1)
	a.Precondition(ows, grad) // populate warm-start state

	c := a.Clone()
	if c == a {
		t.Fatal("Clone returned the same instance")
	}
	if c.Lambda != a.Lambda || c.Tol != a.Tol || c.MaxIter != a.MaxIter {
		t.Fatalf("Clone config mismatch: %+v vs %+v", c, a)
	}
	if c.delta != nil || c.last.Iterations != 0 {
		t.Fatal("Clone must not share solver state")
	}
}

// fisherPartialTwoLoops is FisherPartial as it was before the row-blocked
// kernels: one Dot per row, then one accumulator update per row. Kept as the
// reference the blocked sweep must reproduce bit for bit.
func fisherPartialTwoLoops(ows *tensor.Batch, v tensor.Vector, acc, tbuf []float64) {
	d := ows.Dim
	for k := 0; k < ows.N; k++ {
		tbuf[k] = ows.Sample(k).Dot(v)
	}
	for i := 0; i < d; i++ {
		acc[i] = 0
	}
	for k := 0; k < ows.N; k++ {
		tk := tbuf[k]
		row := ows.Data[k*d : (k+1)*d]
		for i := 0; i < d; i++ {
			acc[i] += tk * row[i]
		}
	}
	var s float64
	for k := 0; k < ows.N; k++ {
		s += tbuf[k] * tbuf[k]
	}
	acc[d] = s
}

// TestFisherPartialMatchesTwoLoopReference pins the row-blocked sweep to the
// pre-change loops with exact bit equality, across quad tails, ragged
// column splits and worker counts. acc starts as garbage: the sweep must
// overwrite, not accumulate.
func TestFisherPartialMatchesTwoLoopReference(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33} {
		for _, d := range []int{1, 3, 64, 1270} {
			ows := tensor.NewBatch(n, d)
			r.FillUniform(ows.Data, -1, 1)
			for i := 0; i < len(ows.Data); i += 5 {
				ows.Data[i] = math.Copysign(0, float64(i%2)-0.5)
			}
			v := tensor.NewVector(d)
			r.FillUniform(v, -1, 1)
			want, wantT := make([]float64, d+1), make([]float64, n)
			fisherPartialTwoLoops(ows, v, want, wantT)
			for _, w := range []int{1, 2, 3, 4, 8} {
				got, gotT := make([]float64, d+1), make([]float64, n)
				r.FillUniform(got, -1, 1)
				FisherPartial(ows, v, got, gotT, w)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("N=%d d=%d workers=%d: acc[%d] = %v, two-loop reference %v", n, d, w, i, got[i], want[i])
					}
				}
				for k := range wantT {
					if math.Float64bits(gotT[k]) != math.Float64bits(wantT[k]) {
						t.Fatalf("N=%d d=%d workers=%d: t[%d] = %v, two-loop reference %v", n, d, w, k, gotT[k], wantT[k])
					}
				}
			}
		}
	}
}

// TestPreconditionOpSteadyStateAllocs: once the SR's workspace has grown, a
// solve on the serial operator allocates nothing, with either solver. Tol 0
// is never met, so every solve runs its full iteration budget.
func TestPreconditionOpSteadyStateAllocs(t *testing.T) {
	r := rng.New(18)
	d, bs := 33, 64
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(d)
	r.FillUniform(grad, -1, 1)
	op := NewBatchFisher(ows, 1e-3, 1)
	for _, solver := range []SolverKind{SolverCG, SolverPipelined} {
		sr := NewSR(1e-3)
		sr.Tol, sr.MaxIter, sr.Solver = 0, 6, solver
		sr.PreconditionOp(op, grad)
		allocs := testing.AllocsPerRun(20, func() { sr.PreconditionOp(op, grad) })
		if it := sr.LastSolve().Iterations; it != 6 {
			t.Fatalf("%v: solve ran %d iterations, want the full 6", solver, it)
		}
		if allocs != 0 {
			t.Fatalf("%v: warmed PreconditionOp allocates %v times per solve, want 0", solver, allocs)
		}
	}
}

// watchOp records the smallest nonzero magnitude among all components the
// solver ever hands to the operator.
type watchOp struct {
	SplitFisherOp
	minSeen float64
}

func (w *watchOp) watch(v tensor.Vector) {
	for _, x := range v {
		if a := math.Abs(x); a != 0 && a < w.minSeen {
			w.minSeen = a
		}
	}
}
func (w *watchOp) ApplyDot(v, out tensor.Vector) float64 {
	w.watch(v)
	return w.SplitFisherOp.ApplyDot(v, out)
}
func (w *watchOp) StartApply(v tensor.Vector) {
	w.watch(v)
	w.SplitFisherOp.StartApply(v)
}

// TestFisherCGFlushesDeadComponents pins the underflow rule of the two
// solvers. A parameter no row of the batch depends on sees A = lambda*I and
// a zero gradient, so its warm-started component only ever shrinks; left
// alone it ends up pinned at a few subnormal ulps and every later sweep pays
// for it. Over a warm-started run the component must decay through the small
// magnitudes, never be stored or handed to the operator below cgTiny (it
// comes to rest at zero or, once its residual lambda*x flushes, just above
// the threshold), while the live components still solve the system.
func TestFisherCGFlushesDeadComponents(t *testing.T) {
	const d, bs, dead = 6, 12, 4
	for _, solver := range []SolverKind{SolverCG, SolverPipelined} {
		r := rng.New(21)
		ows := tensor.NewBatch(bs, d)
		r.FillUniform(ows.Data, -1, 1)
		for k := 0; k < bs; k++ {
			ows.Sample(k)[dead] = 0
		}
		op := &watchOp{SplitFisherOp: NewBatchFisher(ows, 0.1, 1).(SplitFisherOp), minSeen: math.Inf(1)}
		sr := NewSR(0.1)
		sr.Solver, sr.Tol, sr.MaxIter = solver, 1e-30, 40
		sr.delta = tensor.NewVector(d)
		sr.delta[dead] = 1e-3
		grad := tensor.NewVector(d)
		var x tensor.Vector
		for step := 0; step < 400; step++ {
			r.FillUniform(grad, -1, 1)
			grad[dead] = 0
			x = sr.PreconditionOp(op, grad)
		}
		if op.minSeen >= 1e-100 || op.minSeen < cgTiny {
			t.Errorf("solver %v: smallest nonzero component applied is %g, want within [%g, 1e-100)", solver, op.minSeen, cgTiny)
		}
		if a := math.Abs(x[dead]); a >= 1e-100 || (a != 0 && a < cgTiny) {
			t.Errorf("solver %v: dead component is %g after 400 warm-started solves, want 0 or within [%g, 1e-100)", solver, x[dead], cgTiny)
		}
		out := tensor.NewVector(d)
		op.ApplyDot(x, out)
		for i := range out {
			if math.Abs(out[i]-grad[i]) > 1e-9 {
				t.Errorf("solver %v: (A x)[%d] = %v, want %v", solver, i, out[i], grad[i])
			}
		}
	}
}
