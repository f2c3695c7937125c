//go:build !amd64 || purego

package nn

import "math"

// Without the amd64 assembly MADE samples row by row (made_sample.go) and
// the weighted backward's dW2 update runs its Go loop (addW2Row); these Go
// forms of the lane kernels keep the lane code building and state what each
// lane computes.
const haveLanes = false

func cond4AVX2(z *[4]float64, w, a []float64) {
	for k, wk := range w {
		for r := range z {
			if x := a[4*k+r]; x > 0 {
				z[r] += float64(wk * x)
			} else {
				z[r] += 0
			}
		}
	}
}

func add4MaskedAVX2(a, w []float64, mask *[4]uint64) {
	for k, wk := range w {
		for r, m := range mask {
			a[4*k+r] += math.Float64frombits(math.Float64bits(wk) & m)
		}
	}
}

func addW2AVX2(d, dz2 []float64, ak, w float64) { addW2Go(d, dz2, ak, w) }
