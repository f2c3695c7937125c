package maxcut

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestRowsUnitNorm(t *testing.T) {
	f := newFactorization(20, 5, rng.New(1))
	for i := 0; i < f.n; i++ {
		if math.Abs(norm(f.row(i))-1) > 1e-12 {
			t.Fatalf("row %d norm %v", i, norm(f.row(i)))
		}
	}
}

func TestRetractKeepsManifold(t *testing.T) {
	r := rng.New(2)
	f := newFactorization(10, 4, r)
	u := make([]float64, 40)
	r.FillNorm(u, 1)
	f.retract(u, 0.3)
	for i := 0; i < f.n; i++ {
		if math.Abs(norm(f.row(i))-1) > 1e-12 {
			t.Fatal("retraction left the sphere product")
		}
	}
}

func TestEuclideanGradFiniteDifference(t *testing.T) {
	r := rng.New(3)
	g := graph.RandomBernoulli(8, r)
	p := newProblem(g)
	f := newFactorization(8, 3, r)
	grad := make([]float64, len(f.v))
	p.euclideanGrad(f, grad)
	const eps = 1e-6
	for i := range f.v {
		orig := f.v[i]
		f.v[i] = orig + eps
		fp := p.objective(f)
		f.v[i] = orig - eps
		fm := p.objective(f)
		f.v[i] = orig
		fd := (fp - fm) / (2 * eps)
		if math.Abs(fd-grad[i]) > 1e-5 {
			t.Fatalf("coordinate %d: grad %v vs fd %v", i, grad[i], fd)
		}
	}
}

func TestRiemannianGradIsTangent(t *testing.T) {
	r := rng.New(4)
	g := graph.RandomBernoulli(10, r)
	p := newProblem(g)
	f := newFactorization(10, 4, r)
	grad := make([]float64, len(f.v))
	p.euclideanGrad(f, grad)
	p.riemannianGrad(f, grad)
	for i := 0; i < f.n; i++ {
		if d := dot(grad[i*f.r:(i+1)*f.r], f.row(i)); math.Abs(d) > 1e-12 {
			t.Fatalf("gradient not tangent at row %d: %v", i, d)
		}
	}
}

func TestHessVecSymmetry(t *testing.T) {
	// <u, Hess w> == <w, Hess u> for tangent u, w.
	r := rng.New(5)
	g := graph.RandomBernoulli(8, r)
	p := newProblem(g)
	f := newFactorization(8, 3, r)
	av := make([]float64, len(f.v))
	p.euclideanGrad(f, av)
	project := func(u []float64) {
		for i := 0; i < f.n; i++ {
			vi := f.row(i)
			ui := u[i*f.r : (i+1)*f.r]
			c := dot(ui, vi)
			for k := range ui {
				ui[k] -= c * vi[k]
			}
		}
	}
	u := make([]float64, len(f.v))
	w := make([]float64, len(f.v))
	r.FillNorm(u, 1)
	r.FillNorm(w, 1)
	project(u)
	project(w)
	hu := make([]float64, len(f.v))
	hw := make([]float64, len(f.v))
	p.hessVec(f, u, av, hu)
	p.hessVec(f, w, av, hw)
	if math.Abs(dot(u, hw)-dot(w, hu)) > 1e-9 {
		t.Fatalf("Hessian not symmetric: %v vs %v", dot(u, hw), dot(w, hu))
	}
}

func TestGradientDescentDecreasesObjective(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomBernoulli(15, r)
	p := newProblem(g)
	f := newFactorization(15, defaultRank(15), r)
	before := p.objective(f)
	res := p.gradientDescent(f, 300, 1e-4)
	if res.objective > before {
		t.Fatalf("GD increased objective: %v -> %v", before, res.objective)
	}
	if res.gradNorm > 1 {
		t.Fatalf("GD left large gradient: %v", res.gradNorm)
	}
}

func TestTrustRegionReachesStationarity(t *testing.T) {
	r := rng.New(7)
	g := graph.RandomBernoulli(12, r)
	p := newProblem(g)
	f := newFactorization(12, defaultRank(12), r)
	res := p.trustRegion(f, 200, 1e-6)
	if !res.converged && res.gradNorm > 1e-3 {
		t.Fatalf("RTR did not approach stationarity: %+v", res)
	}
}

func TestTrustRegionAtLeastAsGoodAsGD(t *testing.T) {
	r := rng.New(8)
	g := graph.RandomBernoulli(14, r)
	p := newProblem(g)
	fGD := newFactorization(14, defaultRank(14), rng.New(100))
	fTR := newFactorization(14, defaultRank(14), rng.New(100))
	gd := p.gradientDescent(fGD, 400, 1e-8)
	tr := p.trustRegion(fTR, 200, 1e-8)
	if tr.objective > gd.objective+1e-3 {
		t.Fatalf("RTR (%v) worse than GD (%v)", tr.objective, gd.objective)
	}
}

func TestSDPBoundDominatesAnyCut(t *testing.T) {
	// At (near-)optimality the SDP relaxation value must upper-bound every
	// cut, in particular the best exhaustive cut.
	r := rng.New(9)
	g := graph.RandomBernoulli(10, r)
	p := newProblem(g)
	f := newFactorization(10, defaultRank(10), r)
	p.trustRegion(f, 300, 1e-8)
	bound := p.cutBound(f)
	x := make([]int, 10)
	best := 0.0
	for ix := 0; ix < 1<<10; ix++ {
		for i := range x {
			x[i] = (ix >> uint(i)) & 1
		}
		if c := g.CutValue(x); c > best {
			best = c
		}
	}
	if bound < best-1e-6 {
		t.Fatalf("SDP bound %v below max cut %v", bound, best)
	}
}

func TestRoundHyperplaneValidAssignment(t *testing.T) {
	r := rng.New(10)
	f := newFactorization(9, 4, r)
	x := make([]int, 9)
	roundHyperplane(f, r, x)
	for _, b := range x {
		if b != 0 && b != 1 {
			t.Fatalf("invalid side %d", b)
		}
	}
}

func BenchmarkTrustRegion50(b *testing.B) {
	r := rng.New(1)
	g := graph.RandomBernoulli(50, r)
	p := newProblem(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newFactorization(50, defaultRank(50), rng.New(uint64(i)))
		p.trustRegion(f, 60, 1e-5)
	}
}
