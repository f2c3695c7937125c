package exact

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

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

// tridiagEigen diagonalizes a symmetric tridiagonal matrix given its
// diagonal diag and subdiagonal sub (len(sub) == len(diag)-1) through
// tqli. It returns the eigenvalues and the row-major eigenvector matrix
// (column k for eigenvalue k).
func tridiagEigen(diag, sub []float64) ([]float64, []float64, error) {
	n := len(diag)
	d := make([]float64, n)
	e := make([]float64, n)
	copy(d, diag)
	for i := 0; i < n-1; i++ {
		e[i+1] = sub[i]
	}
	z := identity(n)
	if err := tqli(d, e, n, z); err != nil {
		return nil, nil, err
	}
	return d, z, nil
}

// jacobiEigen diagonalizes a dense symmetric matrix (row-major n x n) with
// the cyclic Jacobi method: the dense reference Lanczos is checked
// against. It returns eigenvalues (unsorted) and the row-major eigenvector
// matrix (column k for eigenvalue k).
func jacobiEigen(a []float64, n int) ([]float64, []float64, error) {
	m := make([]float64, len(a))
	copy(m, a)
	v := identity(n)
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i*n+j] * m[i*n+j]
			}
		}
		if off < 1e-22 {
			d := make([]float64, n)
			for i := 0; i < n; i++ {
				d[i] = m[i*n+i]
			}
			return d, v, nil
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*akp - s*akq
					m[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*apk - s*aqk
					m[q*n+k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	return nil, nil, errors.New("exact: Jacobi failed to converge")
}

// minEigDense returns the minimal eigenvalue and its eigenvector of a dense
// symmetric matrix via Jacobi.
func minEigDense(a []float64, n int) (float64, []float64, error) {
	d, v, err := jacobiEigen(a, n)
	if err != nil {
		return 0, nil, err
	}
	k := 0
	for i := 1; i < n; i++ {
		if d[i] < d[k] {
			k = i
		}
	}
	vec := make([]float64, n)
	for i := 0; i < n; i++ {
		vec[i] = v[i*n+k]
	}
	return d[k], vec, nil
}

func TestTridiagEigenKnown(t *testing.T) {
	// Tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]] has eigenvalues 2-sqrt2, 2, 2+sqrt2.
	d, _, err := tridiagEigen([]float64{2, 2, 2}, []float64{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(d)
	want := []float64{2 - math.Sqrt2, 2, 2 + math.Sqrt2}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-10 {
			t.Fatalf("eigenvalues %v, want %v", d, want)
		}
	}
}

func TestTridiagEigenVectors(t *testing.T) {
	diag := []float64{1, -2, 0.5, 3}
	sub := []float64{0.3, -0.7, 1.1}
	d, z, err := tridiagEigen(diag, sub)
	if err != nil {
		t.Fatal(err)
	}
	n := len(diag)
	// Verify A z_k = d_k z_k.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av float64
			av += diag[i] * z[i*n+k]
			if i > 0 {
				av += sub[i-1] * z[(i-1)*n+k]
			}
			if i < n-1 {
				av += sub[i] * z[(i+1)*n+k]
			}
			if math.Abs(av-d[k]*z[i*n+k]) > 1e-9 {
				t.Fatalf("eigenpair %d violates A z = lambda z at row %d", k, i)
			}
		}
	}
}

func TestJacobiEigenAgainstKnown(t *testing.T) {
	// [[2,1],[1,2]] -> 1, 3.
	d, _, err := jacobiEigen([]float64{2, 1, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(d)
	if math.Abs(d[0]-1) > 1e-10 || math.Abs(d[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [1 3]", d)
	}
}

func TestJacobiEigenpairs(t *testing.T) {
	r := rng.New(3)
	n := 12
	a := randSPD(r, n)
	d, v, err := jacobiEigen(a, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += a[i*n+j] * v[j*n+k]
			}
			if math.Abs(av-d[k]*v[i*n+k]) > 1e-8 {
				t.Fatalf("Jacobi eigenpair %d invalid", k)
			}
		}
	}
	// Eigenvectors orthonormal.
	for k := 0; k < n; k++ {
		for l := k; l < n; l++ {
			var s float64
			for i := 0; i < n; i++ {
				s += v[i*n+k] * v[i*n+l]
			}
			want := 0.0
			if k == l {
				want = 1.0
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("eigenvectors not orthonormal: <%d,%d> = %v", k, l, s)
			}
		}
	}
}

func TestLanczosMinMatchesJacobi(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{4, 10, 30} {
		a := randSPD(r, n)
		// Make it indefinite to exercise the general case.
		for i := 0; i < n; i++ {
			a[i*n+i] -= 3
		}
		want, _, err := minEigDense(a, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lanczosMin(denseMV(a, n), n, nil, n, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.eigenvalue-want) > 1e-7 {
			t.Fatalf("n=%d Lanczos %v vs Jacobi %v", n, res.eigenvalue, want)
		}
		// Residual check on the eigenvector.
		av := make([]float64, n)
		denseMV(a, n)(res.eigenvector, av)
		for i := range av {
			if math.Abs(av[i]-res.eigenvalue*res.eigenvector[i]) > 1e-6 {
				t.Fatalf("n=%d eigenvector residual too large at %d", n, i)
			}
		}
	}
}

func TestLanczosDiagonalMatrix(t *testing.T) {
	// Diagonal matrix: minimal eigenvalue is the smallest entry.
	n := 16
	diag := make([]float64, n)
	r := rng.New(5)
	r.FillUniform(diag, -5, 5)
	mv := func(v, out []float64) {
		for i := range v {
			out[i] = diag[i] * v[i]
		}
	}
	res, err := lanczosMin(mv, n, nil, n, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	minD := diag[0]
	for _, d := range diag {
		if d < minD {
			minD = d
		}
	}
	if math.Abs(res.eigenvalue-minD) > 1e-8 {
		t.Fatalf("Lanczos %v, want %v", res.eigenvalue, minD)
	}
}

func TestLanczosBadInput(t *testing.T) {
	mv := func(v, out []float64) { copy(out, v) }
	if _, err := lanczosMin(mv, 4, nil, 1, 1e-8); err == nil {
		t.Fatal("maxKrylov=1 should error")
	}
	if _, err := lanczosMin(mv, 4, []float64{0, 0, 0, 0}, 4, 1e-8); err == nil {
		t.Fatal("zero start vector should error")
	}
}

func BenchmarkLanczos64(b *testing.B) {
	r := rng.New(1)
	n := 64
	a := randSPD(r, n)
	mv := denseMV(a, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lanczosMin(mv, n, nil, 30, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}
