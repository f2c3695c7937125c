package optimizer

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// referenceCG solves A x = b for symmetric positive definite A (a computes
// out = A*v) using textbook conjugate gradients, starting from the current
// contents of x. It stops when the relative residual drops below tol or
// after maxIter iterations. It is the reference SolveFisherCG is checked
// against (TestSolveFisherCGMatchesLinalgCG).
func referenceCG(a func(v, out []float64), b, x []float64, tol float64, maxIter int) CGResult {
	n := len(b)
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	a(x, ap)
	var bnorm float64
	for i := range b {
		r[i] = b[i] - ap[i]
		bnorm += b[i] * b[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}
	}
	copy(p, r)
	rr := dot(r, r)
	for k := 0; k < maxIter; k++ {
		if math.Sqrt(rr)/bnorm < tol {
			return CGResult{Iterations: k, Residual: math.Sqrt(rr) / bnorm, Converged: true}
		}
		a(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			// Not positive definite along p; bail out with best iterate.
			return CGResult{Iterations: k, Residual: math.Sqrt(rr) / bnorm, Converged: false}
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return CGResult{Iterations: maxIter, Residual: math.Sqrt(rr) / bnorm, Converged: math.Sqrt(rr)/bnorm < tol}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// randSPD builds a random symmetric positive definite matrix A = B^T B + I.
func randSPD(r *rng.Rand, n int) []float64 {
	b := make([]float64, n*n)
	r.FillUniform(b, -1, 1)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[k*n+i] * b[k*n+j]
			}
			a[i*n+j] = s
		}
		a[i*n+i] += 1
	}
	return a
}

func denseMV(a []float64, n int) func(v, out []float64) {
	return func(v, out []float64) {
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i*n+j] * v[j]
			}
			out[i] = s
		}
	}
}

func TestCGSolvesSPD(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(r, n)
		xTrue := make([]float64, n)
		r.FillUniform(xTrue, -1, 1)
		b := make([]float64, n)
		denseMV(a, n)(xTrue, b)
		x := make([]float64, n)
		res := referenceCG(denseMV(a, n), b, x, 1e-12, 10*n)
		if !res.Converged {
			t.Fatalf("n=%d CG did not converge: %+v", n, res)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("n=%d x[%d]=%v want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := []float64{2, 0, 0, 3}
	x := []float64{5, -7}
	res := referenceCG(denseMV(a, 2), []float64{0, 0}, x, 1e-10, 10)
	if !res.Converged || x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero RHS: x=%v res=%+v", x, res)
	}
}

func TestCGWarmStart(t *testing.T) {
	r := rng.New(2)
	n := 10
	a := randSPD(r, n)
	b := make([]float64, n)
	r.FillUniform(b, -1, 1)
	cold := make([]float64, n)
	referenceCG(denseMV(a, n), b, cold, 1e-12, 100)
	// Warm start from the exact answer should converge immediately.
	warm := make([]float64, n)
	copy(warm, cold)
	res := referenceCG(denseMV(a, n), b, warm, 1e-10, 100)
	if res.Iterations > 1 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

func BenchmarkCG100(b *testing.B) {
	r := rng.New(1)
	n := 100
	a := randSPD(r, n)
	rhs := make([]float64, n)
	r.FillUniform(rhs, -1, 1)
	mv := denseMV(a, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		referenceCG(mv, rhs, x, 1e-8, 200)
	}
}
