package tensor

import (
	"math"
	"strconv"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// kernelValue draws one operand for the row-kernel tests: 3/8 of the draws
// come from a palette of IEEE edge cases (signed zeros, the smallest and
// largest subnormals, the largest finite, infinities, +/-1), 3/8 are
// uniforms in [-1, 1), whose sums round differently in every other order,
// and the rest are uniforms of mixed magnitude or raw bit patterns. NaN
// never appears as an input: which payload an operation on two NaNs
// returns is left open by Go and IEEE alike (see simd.go).
func kernelValue(r *rng.Rand) float64 {
	palette := [...]float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0008000000000001),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1, -1,
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		return palette[r.Intn(len(palette))]
	case 3, 4, 5:
		return 2*r.Float64() - 1
	case 6:
		return (2*r.Float64() - 1) * math.Ldexp(1, r.Intn(64)-32)
	}
	x := math.Float64frombits(r.Uint64())
	if math.IsNaN(x) {
		return math.Inf(1)
	}
	return x
}

// kernelRows returns count rows of n kernel values, each starting off
// elements into its own backing array (off in 0..3 covers every 32-byte
// alignment of a float64 slice).
func kernelRows(r *rng.Rand, count, n, off int) [][]float64 {
	rows := make([][]float64, count)
	for i := range rows {
		back := make([]float64, off+n+3)
		for j := range back {
			back[j] = kernelValue(r)
		}
		rows[i] = back[off : off+n]
	}
	return rows
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkAdd runs the assembly d += s and the Go loop on copies of one row
// pair and fails on any bit of difference; the elements past len(s) must
// stay untouched.
func checkAdd(t *testing.T, n, doff, soff int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	d := kernelRows(r, 1, n+2, doff)[0]
	s := kernelRows(r, 1, n, soff)[0]
	want := append([]float64(nil), d...)
	addGo(want[:n], s)
	got := append([]float64(nil), d...)
	addAVX2(got[:n], s)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("add n=%d offsets %d/%d seed %d: element %d = %#x, Go loop %#x (d %v, s %v)",
			n, doff, soff, seed, i, math.Float64bits(got[i]), math.Float64bits(want[i]), d[i], s[min(i, n-1)])
	}
}

// checkAxpy is checkAdd for d += a*s.
func checkAxpy(t *testing.T, n, doff, soff int, a float64, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	d := kernelRows(r, 1, n+2, doff)[0]
	s := kernelRows(r, 1, n, soff)[0]
	want := append([]float64(nil), d...)
	axpyGo(want[:n], s, a)
	got := append([]float64(nil), d...)
	axpyAVX2(got[:n], s, a)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("axpy n=%d offsets %d/%d a=%v seed %d: element %d = %#x, Go loop %#x",
			n, doff, soff, a, seed, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// checkAxpy4 is checkAdd for the four-row quad.
func checkAxpy4(t *testing.T, n, off int, w [4]float64, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	d := kernelRows(r, 1, n+2, off)[0]
	rs := kernelRows(r, 4, n, (off+1)%4)
	want := append([]float64(nil), d...)
	axpy4Go(want[:n], rs[0], rs[1], rs[2], rs[3], w[0], w[1], w[2], w[3])
	got := append([]float64(nil), d...)
	axpy4AVX2(got[:n], rs[0], rs[1], rs[2], rs[3], w[0], w[1], w[2], w[3])
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("axpy4 n=%d offset %d w=%v seed %d: element %d = %#x, Go loop %#x",
			n, off, w, seed, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// TestRowKernelsMatchLoops sweeps every length 0..67 at every pair of
// alignments, with random coefficients and a = 1, through the assembly
// kernels and their Go loops (on a build without the assembly both sides
// are the Go loop).
func TestRowKernelsMatchLoops(t *testing.T) {
	r := rng.New(7)
	for n := 0; n <= 67; n++ {
		for doff := 0; doff < 4; doff++ {
			for soff := 0; soff < 4; soff++ {
				for trial := 0; trial < 3; trial++ {
					seed := r.Uint64()
					checkAdd(t, n, doff, soff, seed)
					checkAxpy(t, n, doff, soff, kernelValue(r), seed)
					checkAxpy(t, n, doff, soff, 1, seed)
				}
			}
			checkAxpy4(t, n, doff, [4]float64{kernelValue(r), kernelValue(r), 1, kernelValue(r)}, r.Uint64())
		}
	}
}

// TestRowDispatchMatchesLoops holds the dispatchers (which pick the Go loop
// below simdMinLen and the assembly from it up) to the Go loops across the
// crossover.
func TestRowDispatchMatchesLoops(t *testing.T) {
	r := rng.New(11)
	for n := 0; n <= 2*simdCrossover+5; n++ {
		rows := kernelRows(r, 6, n, n%4)
		a := kernelValue(r)
		for _, tc := range []struct {
			name      string
			got, want func(d []float64)
		}{
			{"add", func(d []float64) { vecAdd(d, rows[1]) }, func(d []float64) { addGo(d, rows[1]) }},
			{"axpy", func(d []float64) { vecAxpy(d, rows[1], a) }, func(d []float64) { axpyGo(d, rows[1], a) }},
			{"axpy a=1", func(d []float64) { vecAxpy(d, rows[1], 1) }, func(d []float64) { addGo(d, rows[1]) }},
			{"axpy4", func(d []float64) { vecAxpy4(d, rows[2], rows[3], rows[4], rows[5], a, -a, 1, 0.5) },
				func(d []float64) { axpy4Go(d, rows[2], rows[3], rows[4], rows[5], a, -a, 1, 0.5) }},
		} {
			got, want := append([]float64(nil), rows[0]...), append([]float64(nil), rows[0]...)
			tc.got(got)
			tc.want(want)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s n=%d: element %d = %#x, Go loop %#x", tc.name, n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// FuzzAddMatchesLoop holds the assembly d += s to the Go loop, bit for bit,
// on fuzzer-chosen lengths 0..67, alignments and operands.
func FuzzAddMatchesLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(3), uint8(1), uint8(2), uint64(2))
	f.Add(uint8(17), uint8(3), uint8(0), uint64(3))
	f.Add(uint8(67), uint8(2), uint8(3), uint64(4))
	f.Fuzz(func(t *testing.T, nRaw, doff, soff uint8, seed uint64) {
		checkAdd(t, int(nRaw)%68, int(doff)%4, int(soff)%4, seed)
	})
}

// FuzzAxpyMatchesLoop holds the assembly d += a*s to the Go loop, bit for
// bit, on fuzzer-chosen lengths 0..67, alignments, operands and a
// (including +/-0, a subnormal, +/-Inf and 1).
func FuzzAxpyMatchesLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), 0.5, uint64(1))
	f.Add(uint8(5), uint8(1), uint8(3), 1.0, uint64(2))
	f.Add(uint8(16), uint8(2), uint8(1), math.Copysign(0, -1), uint64(3))
	f.Add(uint8(33), uint8(3), uint8(2), math.SmallestNonzeroFloat64, uint64(4))
	f.Add(uint8(67), uint8(0), uint8(1), math.Inf(-1), uint64(5))
	f.Add(uint8(64), uint8(1), uint8(1), -3.75e-200, uint64(6))
	f.Fuzz(func(t *testing.T, nRaw, doff, soff uint8, a float64, seed uint64) {
		if math.IsNaN(a) {
			a = math.Inf(1)
		}
		checkAxpy(t, int(nRaw)%68, int(doff)%4, int(soff)%4, a, seed)
	})
}

// BenchmarkRowKernels times the Go loops (inlined into the benchmark loop,
// as at a call site) against the assembly calls at the row lengths around
// the crossover and at the MADE widths of the benchmark (n = 64, h = 86):
// the data behind simdCrossover.
func BenchmarkRowKernels(b *testing.B) {
	const a = 0x1p-40
	for _, n := range []int{2, 4, 6, 8, 10, 12, 16, 24, 32, 64, 86} {
		r := rng.New(uint64(n))
		rows := kernelRows(r, 5, n, 1)
		for _, v := range rows {
			for i := range v {
				v[i] = 2*r.Float64() - 1
			}
		}
		d, s0, s1, s2, s3 := rows[0], rows[1], rows[2], rows[3], rows[4]
		sub := func(name string) string { return name + "/n=" + strconv.Itoa(n) }
		b.Run(sub("add/go"), func(b *testing.B) {
			for b.Loop() {
				addGo(d, s0)
			}
		})
		b.Run(sub("add/asm"), func(b *testing.B) {
			for b.Loop() {
				addAVX2(d, s0)
			}
		})
		b.Run(sub("axpy/go"), func(b *testing.B) {
			for b.Loop() {
				axpyGo(d, s0, a)
			}
		})
		b.Run(sub("axpy/asm"), func(b *testing.B) {
			for b.Loop() {
				axpyAVX2(d, s0, a)
			}
		})
		b.Run(sub("axpy4/go"), func(b *testing.B) {
			for b.Loop() {
				axpy4Go(d, s0, s1, s2, s3, a, a, a, a)
			}
		})
		b.Run(sub("axpy4/asm"), func(b *testing.B) {
			for b.Loop() {
				axpy4AVX2(d, s0, s1, s2, s3, a, a, a, a)
			}
		})
	}
}
