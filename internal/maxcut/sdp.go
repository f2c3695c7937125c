package maxcut

// The Max-Cut semidefinite relaxation, solved through the Burer-Monteiro
// low-rank factorization: minimize f(V) = sum_{i<j} w_ij v_i.v_j over unit
// vectors v_i in R^r (rows of V). The feasible set is a product of spheres,
// a Riemannian manifold; both solvers below work on it — Riemannian
// gradient descent with backtracking (gw) and a Riemannian trust-region
// method with a truncated-CG inner solver (bm), the optimizer family
// behind the paper's Burer-Monteiro baseline (Absil et al.).

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// factorization is a rank-r factor V with unit-norm rows: X = V V^T is the
// PSD matrix of the relaxation.
type factorization struct {
	n, r int
	v    []float64 // row-major n x r
}

// row returns row i of V.
func (f *factorization) row(i int) []float64 { return f.v[i*f.r : (i+1)*f.r] }

// defaultRank is the Barvinok-Pataki rank ceil(sqrt(2n)) + 1 at which the
// factorized problem has no spurious local minima generically.
func defaultRank(n int) int { return int(math.Ceil(math.Sqrt(float64(2*n)))) + 1 }

// newFactorization returns a factorization with iid normal rows projected
// to the sphere.
func newFactorization(n, r int, rnd *rng.Rand) *factorization {
	f := &factorization{n: n, r: r, v: make([]float64, n*r)}
	rnd.FillNorm(f.v, 1)
	f.normalizeRows()
	return f
}

func (f *factorization) normalizeRows() {
	for i := 0; i < f.n; i++ {
		row := f.row(i)
		var s float64
		for _, v := range row {
			s += float64(v * v)
		}
		s = math.Sqrt(s)
		if s == 0 {
			row[0] = 1
			continue
		}
		for k := range row {
			row[k] /= s
		}
	}
}

// retract moves V along tangent direction u with step t and renormalizes
// each row (the metric projection retraction on the sphere product).
func (f *factorization) retract(u []float64, t float64) {
	for i := range f.v {
		f.v[i] += float64(t * u[i])
	}
	f.normalizeRows()
}

// problem is the relaxation of one graph's Max-Cut.
type problem struct {
	g *graph.Graph
}

// objective evaluates f(V) = sum_{i<j} w_ij v_i.v_j.
func (p *problem) objective(f *factorization) float64 {
	var obj float64
	for _, e := range p.g.Edges {
		obj += float64(e.W * dot(f.row(e.U), f.row(e.V)))
	}
	return obj
}

// cutBound returns the relaxation value sum w_ij (1 - v_i.v_j)/2, an upper
// bound (at the SDP optimum) on the maximum cut.
func (p *problem) cutBound(f *factorization) float64 {
	var cut float64
	for _, e := range p.g.Edges {
		cut += float64(e.W * (1 - dot(f.row(e.U), f.row(e.V))) / 2)
	}
	return cut
}

// euclideanGrad computes G_i = sum_j w_ij v_j into out (same shape as V).
func (p *problem) euclideanGrad(f *factorization, out []float64) {
	for i := range out {
		out[i] = 0
	}
	r := f.r
	for _, e := range p.g.Edges {
		vu, vv := f.row(e.U), f.row(e.V)
		ou := out[e.U*r : e.U*r+r]
		ov := out[e.V*r : e.V*r+r]
		for k := 0; k < r; k++ {
			ou[k] += float64(e.W * vv[k])
			ov[k] += float64(e.W * vu[k])
		}
	}
}

// riemannianGrad projects the Euclidean gradient onto the tangent space of
// the product of spheres: R_i = G_i - (G_i.v_i) v_i. egrad is consumed in
// place.
func (p *problem) riemannianGrad(f *factorization, egrad []float64) {
	r := f.r
	for i := 0; i < f.n; i++ {
		vi := f.row(i)
		gi := egrad[i*r : i*r+r]
		c := dot(gi, vi)
		for k := range gi {
			gi[k] -= float64(c * vi[k])
		}
	}
}

// hessVec computes the Riemannian Hessian applied to a tangent vector u:
// (Hess f[u])_i = proj_i((A u)_i) - (v_i . (A v)_i) u_i, where A is the
// weighted adjacency operator. av must hold the Euclidean gradient (A V).
func (p *problem) hessVec(f *factorization, u, av, out []float64) {
	r := f.r
	// out = A u
	for i := range out {
		out[i] = 0
	}
	for _, e := range p.g.Edges {
		uu := u[e.U*r : e.U*r+r]
		uv := u[e.V*r : e.V*r+r]
		ou := out[e.U*r : e.U*r+r]
		ov := out[e.V*r : e.V*r+r]
		for k := 0; k < r; k++ {
			ou[k] += float64(e.W * uv[k])
			ov[k] += float64(e.W * uu[k])
		}
	}
	for i := 0; i < f.n; i++ {
		vi := f.row(i)
		oi := out[i*r : i*r+r]
		ui := u[i*r : i*r+r]
		avi := av[i*r : i*r+r]
		c := dot(oi, vi)
		lam := dot(avi, vi)
		for k := range oi {
			oi[k] -= float64(c*vi[k]) + float64(lam*ui[k])
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += float64(x * b[i])
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// solveStats reports a Riemannian gradient descent or trust-region run.
type solveStats struct {
	iterations int
	objective  float64
	gradNorm   float64
	converged  bool
}

// gradientDescent runs Riemannian gradient descent with backtracking line
// search (Armijo) until the Riemannian gradient norm falls below tol or
// maxIter iterations pass.
func (p *problem) gradientDescent(f *factorization, maxIter int, tol float64) solveStats {
	n, r := f.n, f.r
	grad := make([]float64, n*r)
	trial := make([]float64, n*r)
	obj := p.objective(f)
	step := 1.0 / (1 + p.g.TotalWeight()/float64(n)) // conservative initial step
	var res solveStats
	for it := 0; it < maxIter; it++ {
		p.euclideanGrad(f, grad)
		p.riemannianGrad(f, grad)
		gn := norm(grad)
		res = solveStats{iterations: it, objective: obj, gradNorm: gn}
		if gn < tol {
			res.converged = true
			return res
		}
		// Backtracking on the retraction.
		t := step
		for k := 0; k < 40; k++ {
			copy(trial, f.v)
			f.retract(grad, -t)
			newObj := p.objective(f)
			if newObj <= obj-float64(1e-4*t*gn*gn) {
				obj = newObj
				step = t * 1.5 // optimistic growth
				break
			}
			copy(f.v, trial)
			t /= 2
			if k == 39 {
				res.converged = gn < tol*10
				return res
			}
		}
	}
	res.objective = obj
	return res
}

// trustRegion runs the Riemannian trust-region method with a
// Steihaug-Toint truncated-CG inner solver, the algorithm of the paper's
// Burer-Monteiro baseline (Absil, Baker & Gallivan), for at most maxOuter
// outer iterations or until the gradient norm falls below tol. The inner
// solver may take up to dim-of-the-manifold iterations; the trust radius
// starts at sqrt(n)/8 and is capped at sqrt(n).
func (p *problem) trustRegion(f *factorization, maxOuter int, tol float64) solveStats {
	n, r := f.n, f.r
	dim := n * r
	maxRadius := math.Sqrt(float64(n))

	egrad := make([]float64, dim) // A V (kept Euclidean for Hessian)
	rgrad := make([]float64, dim)
	eta := make([]float64, dim)   // tCG solution
	rvec := make([]float64, dim)  // tCG residual
	delta := make([]float64, dim) // tCG direction
	hd := make([]float64, dim)    // Hessian times direction
	trial := make([]float64, dim)

	radius := math.Sqrt(float64(n)) / 8
	obj := p.objective(f)
	var res solveStats

	for outer := 0; outer < maxOuter; outer++ {
		p.euclideanGrad(f, egrad)
		copy(rgrad, egrad)
		p.riemannianGrad(f, rgrad)
		gn := norm(rgrad)
		res = solveStats{iterations: outer, objective: obj, gradNorm: gn}
		if gn < tol {
			res.converged = true
			return res
		}

		// --- Steihaug-Toint tCG on the tangent space ---
		for i := range eta {
			eta[i] = 0
			rvec[i] = rgrad[i]
			delta[i] = -rgrad[i]
		}
		rr := dot(rvec, rvec)
		interior := true
		for inner := 0; inner < dim; inner++ {
			p.hessVec(f, delta, egrad, hd)
			dHd := dot(delta, hd)
			if dHd <= 0 {
				// Negative curvature: go to the boundary.
				tau := boundaryStep(eta, delta, radius)
				axpy(eta, tau, delta)
				interior = false
				break
			}
			alpha := rr / dHd
			// Would the step leave the trust region?
			en2 := normSqAfter(eta, delta, alpha)
			if en2 >= radius*radius {
				tau := boundaryStep(eta, delta, radius)
				axpy(eta, tau, delta)
				interior = false
				break
			}
			axpy(eta, alpha, delta)
			axpy(rvec, alpha, hd)
			rrNew := dot(rvec, rvec)
			if math.Sqrt(rrNew) < 1e-10*gn || math.Sqrt(rrNew) < 1e-14 {
				break
			}
			beta := rrNew / rr
			for i := range delta {
				delta[i] = -rvec[i] + float64(beta*delta[i])
			}
			rr = rrNew
		}

		// Predicted vs actual reduction.
		p.hessVec(f, eta, egrad, hd)
		pred := -(dot(rgrad, eta) + float64(0.5*dot(eta, hd)))
		copy(trial, f.v)
		f.retract(eta, 1)
		newObj := p.objective(f)
		actual := obj - newObj
		rho := actual / math.Max(pred, 1e-15)

		switch {
		case rho < 0.25 || pred <= 0:
			radius *= 0.25
			copy(f.v, trial) // reject
		case rho > 0.75 && !interior:
			radius = math.Min(2*radius, maxRadius)
			obj = newObj
		default:
			obj = newObj
		}
		if radius < 1e-12 {
			res.objective = obj
			return res
		}
	}
	res.objective = obj
	return res
}

// boundaryStep returns tau >= 0 with |eta + tau*delta| = radius.
func boundaryStep(eta, delta []float64, radius float64) float64 {
	ee := dot(eta, eta)
	ed := dot(eta, delta)
	dd := dot(delta, delta)
	disc := float64(ed*ed) - float64(dd*(ee-float64(radius*radius)))
	if disc < 0 {
		disc = 0
	}
	return (-ed + math.Sqrt(disc)) / dd
}

func normSqAfter(eta, delta []float64, alpha float64) float64 {
	return dot(eta, eta) + float64(2*alpha*dot(eta, delta)) + float64(alpha*alpha*dot(delta, delta))
}

func axpy(dst []float64, a float64, src []float64) {
	for i := range dst {
		dst[i] += float64(a * src[i])
	}
}

// roundHyperplane rounds the factorization with one random hyperplane
// (Goemans-Williamson): side_i = sign(v_i . g) with g ~ N(0, I_r).
func roundHyperplane(f *factorization, rnd *rng.Rand, x []int) {
	g := make([]float64, f.r)
	rnd.FillNorm(g, 1)
	for i := 0; i < f.n; i++ {
		if dot(f.row(i), g) >= 0 {
			x[i] = 0
		} else {
			x[i] = 1
		}
	}
}
