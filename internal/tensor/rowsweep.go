package tensor

// Row sweeps over a Batch: the two reductions every consumer of a B x d
// matrix of per-sample rows needs. Both take four rows per pass, which
// blocks ACROSS independent outputs and never inside an accumulation chain:
// each t[k] keeps its own ascending-i chain, and each dst[i] still receives
// its terms one add at a time in ascending k. The results are therefore
// bitwise those of a per-row Dot / AXPY loop, whatever ranges the caller
// splits the sweep into; the 1-3 rows past the last whole quad run exactly
// that loop.

// RowDots sets t[k] = Sample(k) . v for k in [k0, k1).
func (b *Batch) RowDots(t []float64, v Vector, k0, k1 int) {
	if len(v) != b.Dim {
		panic("tensor: RowDots length mismatch")
	}
	k := k0
	for ; k+4 <= k1; k += 4 {
		// Reslicing to len(v) lets the compiler drop the inner bounds checks.
		r0, r1 := b.Sample(k)[:len(v)], b.Sample(k + 1)[:len(v)]
		r2, r3 := b.Sample(k + 2)[:len(v)], b.Sample(k + 3)[:len(v)]
		var s0, s1, s2, s3 float64
		for i, x := range v {
			s0 += float64(r0[i] * x)
			s1 += float64(r1[i] * x)
			s2 += float64(r2[i] * x)
			s3 += float64(r3[i] * x)
		}
		t[k], t[k+1], t[k+2], t[k+3] = s0, s1, s2, s3
	}
	for ; k < k1; k++ {
		t[k] = b.Sample(k).Dot(v)
	}
}

// AddWeightedRows accumulates dst[i] += sum_k w[k] * Sample(k)[i] over every
// row, ascending in k, for the columns i in [lo, hi). A nil w weighs every
// row by 1 (the plain row sum: 1*x is x exactly). dst is NOT zeroed first.
func (b *Batch) AddWeightedRows(dst Vector, w []float64, lo, hi int) {
	out := dst[lo:hi]
	row := func(k int) (float64, []float64) {
		wk := 1.0
		if w != nil {
			wk = w[k]
		}
		// [:len(out)] restates the length so the inner bounds checks drop.
		return wk, b.Data[k*b.Dim+lo : k*b.Dim+hi][:len(out)]
	}
	k := 0
	for ; k+4 <= b.N; k += 4 {
		w0, r0 := row(k)
		w1, r1 := row(k + 1)
		w2, r2 := row(k + 2)
		w3, r3 := row(k + 3)
		vecAxpy4(out, r0, r1, r2, r3, w0, w1, w2, w3)
	}
	for ; k < b.N; k++ {
		wk, r := row(k)
		out.AXPY(wk, r)
	}
}
