//go:build !amd64 || purego

package tensor

import "math"

// Without the amd64 assembly (another GOARCH, or the purego build tag)
// every row runs the Go loops of simd.go.
const simdMinLen = math.MaxInt

// The assembly kernels' names, bound to the Go loops so that code calling
// them directly (the tests) builds on every target.

func addAVX2(d, s []float64) { addGo(d, s) }

func axpyAVX2(d, s []float64, a float64) { axpyGo(d, s, a) }

func axpy4AVX2(d, r0, r1, r2, r3 []float64, w0, w1, w2, w3 float64) {
	axpy4Go(d, r0, r1, r2, r3, w0, w1, w2, w3)
}
