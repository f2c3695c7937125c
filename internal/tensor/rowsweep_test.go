package tensor

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// naiveRowDots and naiveAddWeightedRows are the per-row loops the blocked
// kernels replaced, kept here as the reference: one Dot per row, one
// scalar d += w*x loop per row (w = 1 for the unweighted sum; 1*x is x).
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
		for i, x := range b.Sample(k)[lo:hi] {
			dst[lo+i] += float64(wk * x)
		}
	}
}

// quadAddWeightedRows is AddWeightedRows as it was before the row kernels:
// four rows per pass in one Go expression, then one scalar loop per
// leftover row.
func quadAddWeightedRows(b *Batch, dst Vector, w []float64, lo, hi int) {
	out := dst[lo:hi]
	row := func(k int) (float64, []float64) {
		wk := 1.0
		if w != nil {
			wk = w[k]
		}
		return wk, b.Data[k*b.Dim+lo : k*b.Dim+hi][:len(out)]
	}
	k := 0
	for ; k+4 <= b.N; k += 4 {
		w0, r0 := row(k)
		w1, r1 := row(k + 1)
		w2, r2 := row(k + 2)
		w3, r3 := row(k + 3)
		for i, x := range out {
			out[i] = x + float64(w0*r0[i]) + float64(w1*r1[i]) + float64(w2*r2[i]) + float64(w3*r3[i])
		}
	}
	for ; k < b.N; k++ {
		wk, r := row(k)
		for i := range out {
			out[i] += float64(wk * r[i])
		}
	}
}

// TestAddWeightedRowsMatchesQuadLoop holds AddWeightedRows, whose quads run
// on the four-row kernel, to the quad loop it replaced, over widths on both
// sides of the crossover and rows of IEEE edge cases (kernelValue: signed
// zeros, subnormals, infinities).
func TestAddWeightedRowsMatchesQuadLoop(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 4, 5, 8, 11} {
		for d := 0; d <= 67; d++ {
			b := NewBatch(n, d+3)
			for i := range b.Data {
				b.Data[i] = kernelValue(r)
			}
			w := make([]float64, n)
			for i := range w {
				w[i] = kernelValue(r)
			}
			dst0 := NewVector(d + 3)
			for i := range dst0 {
				dst0[i] = kernelValue(r)
			}
			lo, hi := d%3, d%3+d
			for _, wts := range [][]float64{w, nil} {
				want, got := dst0.Clone(), dst0.Clone()
				quadAddWeightedRows(b, want, wts, lo, hi)
				b.AddWeightedRows(got, wts, lo, hi)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("n=%d columns [%d, %d) weighted=%v: element %d = %#x, quad loop %#x",
						n, lo, hi, wts != nil, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
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
