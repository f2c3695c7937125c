// Package exact computes exact ground states of the paper's Hamiltonians by
// matrix-free Lanczos iteration over the full 2^n-dimensional space
// (lanczos.go: Lanczos with full reorthogonalization over an implicit-QL
// tridiagonal eigensolver). It is the reference oracle the VQMC tests
// validate against, practical up to about n = 20 (a 1M-dimensional
// eigenproblem).
package exact

import (
	"errors"
	"fmt"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Result is an exact ground-state eigenpair.
type Result struct {
	Energy float64
	// Vector is the normalized ground eigenvector over the computational
	// basis, indexed by hamiltonian.BitsToIndex.
	Vector []float64
}

// MaxSites bounds the problem size GroundState accepts.
const MaxSites = 22

// maxRestarts bounds how often GroundState restarts an unconverged Lanczos
// run from its own Ritz vector.
const maxRestarts = 4

// GroundState computes the minimal eigenpair of h by Lanczos with a random
// start vector. maxKrylov <= 0 selects a sensible default. A run that ends
// unconverged after maxKrylov vectors restarts from its Ritz vector, which
// overlaps the ground state far better than the random start did, at most
// maxRestarts times; a run that converges first takes no restart.
func GroundState(h hamiltonian.Hamiltonian, maxKrylov int, seed uint64) (Result, error) {
	n := h.N()
	if n > MaxSites {
		return Result{}, fmt.Errorf("exact: n = %d exceeds limit %d", n, MaxSites)
	}
	dim := 1 << uint(n)
	if maxKrylov <= 0 {
		maxKrylov = 80
		if maxKrylov > dim {
			maxKrylov = dim
		}
	}
	v0 := make([]float64, dim)
	rng.New(seed).FillUniform(v0, 0.1, 1) // positive start overlaps the PF ground state
	mv := func(v, out []float64) { hamiltonian.Apply(h, v, out) }
	res, err := lanczosMin(mv, dim, v0, maxKrylov, 1e-10)
	for r := 0; err == nil && !res.converged && maxKrylov < dim && r < maxRestarts; r++ {
		res, err = lanczosMin(mv, dim, res.eigenvector, maxKrylov, 1e-10)
	}
	if err != nil {
		return Result{}, err
	}
	if !res.converged && maxKrylov < dim {
		return Result{Energy: res.eigenvalue, Vector: res.eigenvector},
			errors.New("exact: Lanczos did not reach tolerance; increase maxKrylov")
	}
	return Result{Energy: res.eigenvalue, Vector: res.eigenvector}, nil
}

// GroundStateDiagonal exactly minimizes a diagonal Hamiltonian (such as
// Max-Cut) by exhaustive scan, returning the energy and an optimal
// configuration. Practical up to about n = 24.
func GroundStateDiagonal(h hamiltonian.Hamiltonian, nLimit int) (float64, []int, error) {
	n := h.N()
	if nLimit <= 0 {
		nLimit = 24
	}
	if n > nLimit {
		return 0, nil, fmt.Errorf("exact: n = %d exceeds scan limit %d", n, nLimit)
	}
	if len(h.FlipTerms()) != 0 {
		return 0, nil, errors.New("exact: Hamiltonian is not diagonal")
	}
	x := make([]int, n)
	best := make([]int, n)
	bestE := 0.0
	first := true
	for ix := 0; ix < 1<<uint(n); ix++ {
		hamiltonian.IndexToBits(ix, x)
		e := h.Diagonal(x)
		if first || e < bestE {
			bestE = e
			copy(best, x)
			first = false
		}
	}
	return bestE, best, nil
}

// Variance returns <psi|H^2|psi> - <psi|H|psi>^2 for a normalized state
// vector; it is zero exactly when psi is an eigenvector (Eq. 4).
func Variance(h hamiltonian.Hamiltonian, psi []float64) float64 {
	dim := len(psi)
	hv := make([]float64, dim)
	hamiltonian.Apply(h, psi, hv)
	var e, e2 float64
	for i := range psi {
		e += float64(psi[i] * hv[i])
		e2 += float64(hv[i] * hv[i])
	}
	return e2 - float64(e*e)
}
