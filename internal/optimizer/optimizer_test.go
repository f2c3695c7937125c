package optimizer

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

func TestSGDStep(t *testing.T) {
	p := tensor.Vector{1, 2}
	g := tensor.Vector{0.5, -1}
	NewSGD(0.1).Step(p, g)
	if math.Abs(p[0]-0.95) > 1e-15 || math.Abs(p[1]-2.1) > 1e-15 {
		t.Fatalf("SGD step got %v", p)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	s := &SGD{LR: 0.1, Momentum: 0.9}
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	s.Step(p, g) // vel=1, p=-0.1
	s.Step(p, g) // vel=1.9, p=-0.29
	if math.Abs(p[0]-(-0.29)) > 1e-12 {
		t.Fatalf("momentum step got %v, want -0.29", p[0])
	}
}

func TestAdamMatchesReference(t *testing.T) {
	// Hand-computed first two Adam steps for g = [1], lr=0.1.
	a := NewAdam(0.1)
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	a.Step(p, g)
	// t=1: mHat=1, vHat=1 -> p = -0.1/(1+1e-8) ~ -0.1.
	if math.Abs(p[0]+0.1) > 1e-6 {
		t.Fatalf("Adam step1 got %v, want ~-0.1", p[0])
	}
	a.Step(p, g)
	// t=2: m=0.19/... mHat=1, vHat=1 again for constant gradient.
	if math.Abs(p[0]+0.2) > 1e-6 {
		t.Fatalf("Adam step2 got %v, want ~-0.2", p[0])
	}
}

func TestAdamPerCoordinateScaling(t *testing.T) {
	// Adam normalizes per-coordinate: wildly different gradient scales
	// should produce near-equal step magnitudes.
	a := NewAdam(0.01)
	p := tensor.Vector{0, 0}
	g := tensor.Vector{100, 0.001}
	a.Step(p, g)
	if math.Abs(math.Abs(p[0])-math.Abs(p[1])) > 1e-4 {
		t.Fatalf("Adam steps not scale-invariant: %v", p)
	}
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	// Minimize f(x) = 0.5 sum a_i x_i^2 from a fixed start.
	r := rng.New(1)
	a := make([]float64, 10)
	r.FillUniform(a, 0.5, 2)
	for _, opt := range []Optimizer{NewSGD(0.1), NewAdam(0.05), &SGD{LR: 0.05, Momentum: 0.9}} {
		p := tensor.NewVector(10)
		r.FillUniform(p, -1, 1)
		g := tensor.NewVector(10)
		for it := 0; it < 500; it++ {
			for i := range g {
				g[i] = a[i] * p[i]
			}
			opt.Step(p, g)
		}
		if n := p.Norm2(); n > 1e-2 {
			t.Errorf("%s failed to converge: |x| = %v", opt.Name(), n)
		}
	}
}

func TestSRMatchesDenseSolve(t *testing.T) {
	r := rng.New(2)
	d, bs := 12, 40
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(d)
	r.FillUniform(grad, -1, 1)

	sr := NewSR(1e-3)
	sr.Tol = 1e-12
	sr.MaxIter = 500
	delta := sr.Precondition(ows, grad)

	// Dense reference: solve (S+lambda I) x = grad by CG on the dense
	// matrix (it is SPD by construction).
	m := sr.DenseFisher(ows)
	// Verify residual of the matrix-free solution against the dense matrix.
	for i := 0; i < d; i++ {
		var s float64
		for j := 0; j < d; j++ {
			s += m[i*d+j] * delta[j]
		}
		if math.Abs(s-grad[i]) > 1e-6 {
			t.Fatalf("SR solution residual %v at row %d", s-grad[i], i)
		}
	}
	if !sr.LastSolve().Converged {
		t.Fatal("SR CG did not converge")
	}
}

func TestSRWarmStartReuse(t *testing.T) {
	r := rng.New(3)
	d, bs := 8, 30
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(d)
	r.FillUniform(grad, -1, 1)
	sr := NewSR(1e-2)
	sr.Precondition(ows, grad)
	first := sr.LastSolve().Iterations
	// Same system again: warm start should converge in fewer iterations.
	sr.Precondition(ows, grad)
	if sr.LastSolve().Iterations > first {
		t.Fatalf("warm start took more iterations (%d > %d)", sr.LastSolve().Iterations, first)
	}
}

func TestSRIdentityFisher(t *testing.T) {
	// If O rows are zero, S = 0 and delta = grad/lambda.
	d := 5
	ows := tensor.NewBatch(10, d)
	grad := tensor.Vector{1, 2, 3, 4, 5}
	sr := NewSR(0.5)
	delta := sr.Precondition(ows, grad)
	for i := range delta {
		if math.Abs(delta[i]-grad[i]/0.5) > 1e-8 {
			t.Fatalf("delta = %v, want grad/lambda", delta)
		}
	}
}

func TestSRNaturalGradientDirection(t *testing.T) {
	// With strongly anisotropic O, SR must rescale the gradient toward the
	// whitened direction: components with large Fisher curvature shrink.
	r := rng.New(4)
	d, bs := 2, 200
	ows := tensor.NewBatch(bs, d)
	for k := 0; k < bs; k++ {
		ows.Sample(k)[0] = r.Norm() * 10 // high variance coordinate
		ows.Sample(k)[1] = r.Norm() * 0.1
	}
	grad := tensor.Vector{1, 1}
	sr := NewSR(1e-6)
	delta := sr.Precondition(ows, grad)
	if delta[0] >= delta[1] {
		t.Fatalf("SR did not whiten: delta = %v", delta)
	}
}

func TestNames(t *testing.T) {
	if NewSGD(0.1).Name() != "SGD" || NewAdam(0.01).Name() != "ADAM" {
		t.Fatal("optimizer names wrong")
	}
}

func BenchmarkAdamStep(b *testing.B) {
	a := NewAdam(0.01)
	p := tensor.NewVector(10000)
	g := tensor.NewVector(10000)
	rng.New(1).FillUniform(g, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(p, g)
	}
}

// BenchmarkSRSolverCG quantifies the matrix-free CG solve, the alternative
// to materializing the dense Fisher matrix.
func BenchmarkSRSolverCG(b *testing.B) {
	r := rng.New(1)
	d, bs := 200, 256
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	grad := tensor.NewVector(d)
	r.FillUniform(grad, -1, 1)
	sr := NewSR(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.delta = nil // cold start each time for a fair benchmark
		sr.Precondition(ows, grad)
	}
}

func BenchmarkSRSolverDense(b *testing.B) {
	r := rng.New(1)
	d, bs := 200, 256
	ows := tensor.NewBatch(bs, d)
	r.FillUniform(ows.Data, -1, 1)
	sr := NewSR(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sr.DenseFisher(ows)
	}
}
