package tensor

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// naiveRowDots and naiveAddWeightedRows are the per-row loops the blocked
// kernels replaced, kept here as the reference: one Dot per row, one AXPY
// per row (AXPY(1, .) for the unweighted sum, as Vector.Add always was).
func naiveRowDots(b *Batch, t []float64, v Vector) {
	for k := 0; k < b.N; k++ {
		t[k] = b.Sample(k).Dot(v)
	}
}

func naiveAddWeightedRows(b *Batch, dst Vector, w []float64, lo, hi int) {
	for k := 0; k < b.N; k++ {
		wk := 1.0
		if w != nil {
			wk = w[k]
		}
		dst[lo:hi].AXPY(wk, b.Sample(k)[lo:hi])
	}
}

// sweepBatch fills an n x d batch (and a d-vector, n weights and a d-vector
// of prior dst contents) with uniforms in which roughly every fifth entry is
// +0 and every fifth -0, so signed-zero products and sums are exercised.
func sweepBatch(n, d int, r *rng.Rand) (b *Batch, v Vector, w []float64, dst0 Vector) {
	fill := func(x []float64) {
		r.FillUniform(x, -1, 1)
		for i := range x {
			switch r.Intn(5) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			}
		}
	}
	b, v, w, dst0 = NewBatch(n, d), NewVector(d), make([]float64, n), NewVector(d)
	fill(b.Data)
	fill(v)
	fill(w)
	fill(dst0)
	return b, v, w, dst0
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkRowSweeps drives both kernels through the splits their consumers use
// — rows in whole quads for RowDots, columns for AddWeightedRows — at the
// given worker count and over the column sub-range [lo, hi), and compares
// every output bit with the naive loops.
func checkRowSweeps(t *testing.T, n, d, lo, hi, workers int, seed uint64) {
	t.Helper()
	b, v, w, dst0 := sweepBatch(n, d, rng.New(seed))

	want, got := make([]float64, n), make([]float64, n)
	naiveRowDots(b, want, v)
	parallel.For((n+3)/4, workers, func(qlo, qhi int) {
		b.RowDots(got, v, 4*qlo, min(4*qhi, n))
	})
	bitsEqual(t, "RowDots", got, want)

	for _, wts := range [][]float64{w, nil} {
		wantD, gotD := dst0.Clone(), dst0.Clone()
		naiveAddWeightedRows(b, wantD, wts, lo, hi)
		parallel.For(hi-lo, workers, func(clo, chi int) {
			b.AddWeightedRows(gotD, wts, lo+clo, lo+chi)
		})
		// Columns outside [lo, hi) must be untouched: compare all of dst.
		bitsEqual(t, "AddWeightedRows", gotD, wantD)
	}
}

func TestRowSweepEquivalence(t *testing.T) {
	seed := uint64(1)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33} {
		for _, d := range []int{1, 3, 64, 1270} {
			for _, cols := range [][2]int{{0, d}, {d / 3, d - d/4}, {d / 2, d / 2}} {
				for _, workers := range []int{1, 2, 3, 4, 8} {
					seed++
					checkRowSweeps(t, n, d, cols[0], cols[1], workers, seed)
				}
			}
		}
	}
}

// FuzzRowSweepEquivalence draws the shape, the column sub-range and the
// worker count from the fuzzer and asserts the same bit equality.
func FuzzRowSweepEquivalence(f *testing.F) {
	f.Add(uint8(5), uint16(3), uint16(0), uint16(3), uint8(1), uint64(1))
	f.Add(uint8(33), uint16(64), uint16(7), uint16(40), uint8(3), uint64(9))
	f.Add(uint8(0), uint16(1), uint16(0), uint16(1), uint8(8), uint64(42))
	f.Fuzz(func(t *testing.T, nRaw uint8, dRaw, loRaw, hiRaw uint16, wRaw uint8, seed uint64) {
		n := int(nRaw) % 70
		d := 1 + int(dRaw)%300
		lo := int(loRaw) % (d + 1)
		hi := lo + int(hiRaw)%(d+1-lo)
		checkRowSweeps(t, n, d, lo, hi, 1+int(wRaw)%8, seed)
	})
}
