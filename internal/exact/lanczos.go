package exact

import (
	"errors"
	"math"
)

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += float64(x * b[i])
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// lanczosResult holds the lowest Ritz pair from a Lanczos run.
type lanczosResult struct {
	eigenvalue  float64
	eigenvector []float64 // normalized, length n
	converged   bool
}

// lanczosMin computes the minimal eigenvalue (and eigenvector) of the
// symmetric operator a (out = A*v; it must not retain v or out) of
// dimension n, using at most maxKrylov Lanczos vectors with full
// reorthogonalization. The start vector is v0 (copied), or an alternating
// constant vector if v0 is nil. tol bounds the residual estimate
// |beta_m * y_m| on the Ritz value.
func lanczosMin(a func(v, out []float64), n int, v0 []float64, maxKrylov int, tol float64) (lanczosResult, error) {
	if maxKrylov < 2 {
		return lanczosResult{}, errors.New("exact: maxKrylov must be >= 2")
	}
	if maxKrylov > n {
		maxKrylov = n
	}
	// Krylov basis, kept for reorthogonalization and eigenvector recovery.
	basis := make([][]float64, 0, maxKrylov)
	alpha := make([]float64, 0, maxKrylov)
	beta := make([]float64, 0, maxKrylov) // beta[j] links v_j and v_{j+1}

	v := make([]float64, n)
	if v0 != nil {
		copy(v, v0)
	} else {
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(n))
			if i%2 == 1 {
				v[i] = -v[i]
			}
		}
	}
	nv := norm(v)
	if nv == 0 {
		return lanczosResult{}, errors.New("exact: zero start vector")
	}
	for i := range v {
		v[i] /= nv
	}

	w := make([]float64, n)
	best := lanczosResult{eigenvalue: math.Inf(1)}
	for j := 0; j < maxKrylov; j++ {
		vj := make([]float64, n)
		copy(vj, v)
		basis = append(basis, vj)

		a(vj, w)
		aj := dot(vj, w)
		alpha = append(alpha, aj)
		// w = w - alpha_j v_j - beta_{j-1} v_{j-1}
		for i := range w {
			w[i] -= float64(aj * vj[i])
		}
		if j > 0 {
			bj := beta[j-1]
			prev := basis[j-1]
			for i := range w {
				w[i] -= float64(bj * prev[i])
			}
		}
		// Full reorthogonalization for numerical robustness.
		for _, u := range basis {
			c := dot(u, w)
			if c != 0 {
				for i := range w {
					w[i] -= float64(c * u[i])
				}
			}
		}
		bNext := norm(w)

		// Solve the (j+1)x(j+1) tridiagonal eigenproblem.
		m := j + 1
		d := make([]float64, m)
		e := make([]float64, m)
		copy(d, alpha)
		for k := 0; k < j; k++ {
			e[k+1] = beta[k]
		}
		z := identity(m)
		if err := tqli(d, e, m, z); err != nil {
			return lanczosResult{}, err
		}
		// Find minimal Ritz value.
		kMin := 0
		for k := 1; k < m; k++ {
			if d[k] < d[kMin] {
				kMin = k
			}
		}
		resid := math.Abs(bNext * z[(m-1)*m+kMin])
		best = lanczosResult{eigenvalue: d[kMin], converged: resid < tol}
		if best.converged || bNext < 1e-14 || m == maxKrylov {
			// Recover the eigenvector in the original space.
			vec := make([]float64, n)
			for k := 0; k < m; k++ {
				c := z[k*m+kMin]
				for i := range vec {
					vec[i] += float64(c * basis[k][i])
				}
			}
			nv := norm(vec)
			for i := range vec {
				vec[i] /= nv
			}
			best.eigenvector = vec
			best.converged = best.converged || bNext < 1e-14
			return best, nil
		}
		beta = append(beta, bNext)
		for i := range v {
			v[i] = w[i] / bNext
		}
	}
	return best, nil
}

func identity(m int) []float64 {
	z := make([]float64, m*m)
	for i := 0; i < m; i++ {
		z[i*m+i] = 1
	}
	return z
}

// tqli diagonalizes a symmetric tridiagonal matrix with diagonal d[0..n-1]
// and subdiagonal e[1..n-1] (e[0] unused) using the implicit QL algorithm
// with Wilkinson shifts. On return d holds eigenvalues and z (n x n,
// row-major, initialized by the caller, typically to identity) accumulates
// the rotations so column k of z is the eigenvector for d[k].
func tqli(d, e []float64, n int, z []float64) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter++; iter == 50 {
				return errors.New("exact: tqli failed to converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := float64(c * e[i])
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - b
				for k := 0; k < n; k++ {
					f := z[k*n+i+1]
					z[k*n+i+1] = float64(s*z[k*n+i]) + float64(c*f)
					z[k*n+i] = float64(c*z[k*n+i]) - float64(s*f)
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
