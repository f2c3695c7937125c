package tensor

// Row kernels: d += s, d += a*s and the four-row d + w0*r0 + ... + w3*r3.
// The package's row updates (Vector.AXPY, Add and Sub, the GEMMs' accumRow,
// Batch.AddWeightedRows), and through them nn's per-row folds, run on these
// three.
//
// Exactness. Each dispatcher picks between two implementations that
// produce the same bits: the Go loop below, and (on amd64 with AVX2, unless
// built with the purego tag) the four-lane assembly of simd_amd64.s. Both
// give each element the same IEEE operations in the same order, one
// rounded product and one rounded add per term; the lanes only run four
// independent elements at once, and no element's chain is split or
// reordered. The assembly never fuses a multiply into an add, and the Go
// loops spell each product float64(x*y), which forbids the fusion other
// targets would otherwise perform, so the loops round like the lanes on
// every GOARCH. What IEEE leaves open — which NaN payload an operation on
// two NaN operands returns — Go leaves open too (the compiler orders the
// operands of one loop differently from another's), so results are pinned
// for non-NaN inputs only; NaNs produced from non-NaN operands (Inf - Inf,
// 0 * Inf) are the one default NaN on either side.
//
// The AVX2 kernel is taken from simdMinLen elements up: below the
// crossover the call into assembly (which cannot inline) costs more than
// the lanes save.

// simdCrossover is the row length from which the AVX2 kernels beat the Go
// loops on amd64, measured with BenchmarkRowKernels on a 2-CPU Xeon host
// (medians of five): 8 is the shortest length at which the call into
// assembly beat the inlined loop for all three kernels (d += s at 6 was
// still slower), and from 16 up it was 1.8x faster or more.
const simdCrossover = 8

// vecAdd computes d[i] += s[i] for i < len(s); len(d) must be >= len(s).
func vecAdd(d, s []float64) {
	if len(s) >= simdMinLen {
		addAVX2(d[:len(s)], s)
		return
	}
	addGo(d, s)
}

// vecAxpy computes d[i] += a*s[i] for i < len(s); len(d) must be >=
// len(s).
func vecAxpy(d, s []float64, a float64) {
	if len(s) >= simdMinLen {
		axpyAVX2(d[:len(s)], s, a)
		return
	}
	axpyGo(d, s, a)
}

// vecAxpy4 computes d[i] = d[i] + w0*r0[i] + w1*r1[i] + w2*r2[i] +
// w3*r3[i], the adds left to right, for every i < len(d); each r must hold
// at least len(d) elements.
func vecAxpy4(d, r0, r1, r2, r3 []float64, w0, w1, w2, w3 float64) {
	if len(d) >= simdMinLen {
		axpy4AVX2(d, r0, r1, r2, r3, w0, w1, w2, w3)
		return
	}
	axpy4Go(d, r0, r1, r2, r3, w0, w1, w2, w3)
}

// The Go loops: the fallback below the crossover and on every other
// build, and the reference the assembly is tested against. They are kept
// small enough to inline into the dispatchers, so a short row pays one
// call and no more.

func addGo(d, s []float64) {
	d = d[:len(s)]
	for j, x := range s {
		d[j] += x
	}
}

func axpyGo(d, s []float64, a float64) {
	d = d[:len(s)]
	for j, x := range s {
		d[j] += float64(a * x)
	}
}

func axpy4Go(d, r0, r1, r2, r3 []float64, w0, w1, w2, w3 float64) {
	// Restating the lengths lets the compiler drop the inner bounds checks.
	r0, r1, r2, r3 = r0[:len(d)], r1[:len(d)], r2[:len(d)], r3[:len(d)]
	for i, x := range d {
		d[i] = x + float64(w0*r0[i]) + float64(w1*r1[i]) + float64(w2*r2[i]) + float64(w3*r3[i])
	}
}
