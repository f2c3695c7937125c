package tensor

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func randomMatrix(rows, cols int, r *rng.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	// Sprinkle exact zeros so the zero-skip branches are exercised.
	for i := range m.Data {
		if r.Bernoulli(0.2) {
			m.Data[i] = 0
		}
	}
	return m
}

// naive dst = a*b^T through the serial Mul on a materialized transpose is
// NOT a valid reference for bitwise comparison (Mul's k order over b^T rows
// matches, but we want the per-sample kernel): the authoritative scalar
// reference for MatMulT is MulVec row by row.
func mulTByMulVec(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		b.MulVec(out.Row(i), a.Row(i))
	}
	return out
}

func matricesExactlyEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", name, i, v, want.Data[i])
		}
	}
}

// TestMatMulBitwiseMatchesMul: the blocked parallel GEMM must equal the
// serial Mul exactly (==, no tolerance) on ragged shapes for every worker
// count — the property the batched evaluation path's bit-identity
// guarantee is built on.
func TestMatMulBitwiseMatchesMul(t *testing.T) {
	r := rng.New(11)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 5}, {7, 1, 9}, {33, 17, 65}, {64, 64, 64}, {100, 5, 3}, {5, 100, 31}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(m, k, r)
		b := randomMatrix(k, n, r)
		want := NewMatrix(m, n)
		Mul(want, a, b)
		for _, workers := range []int{1, 2, 5} {
			got := NewMatrix(m, n)
			MatMul(got, a, b, workers)
			matricesExactlyEqual(t, "MatMul", got, want)
		}
	}
}

// TestMatMulTBitwiseMatchesMulVec: MatMulT row i must reproduce MulVec of
// row i against b exactly, for ragged shapes and worker counts, so the
// batched forward is the per-sample forward in a different loop order.
func TestMatMulTBitwiseMatchesMulVec(t *testing.T) {
	r := rng.New(13)
	shapes := [][3]int{{1, 1, 1}, {3, 2, 4}, {19, 7, 1}, {65, 33, 40}, {128, 9, 77}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(m, k, r)
		b := randomMatrix(n, k, r)
		want := mulTByMulVec(a, b)
		for _, workers := range []int{1, 2, 5} {
			got := NewMatrix(m, n)
			MatMulT(got, a, b, workers)
			matricesExactlyEqual(t, "MatMulT", got, want)
		}
	}
}

// TestMatMulColsBitwiseMatchesFull: the column-range kernel must
// reproduce the corresponding columns of the full product exactly — for
// every sub-range, worker count, and ragged shape — and must leave the
// columns outside the range untouched (the 4-row micro-kernel's
// multiply-by-zero and dropped 1*x elision are exact no-ops).
func TestMatMulColsBitwiseMatchesFull(t *testing.T) {
	r := rng.New(23)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 5}, {6, 4, 9}, {33, 17, 65}, {13, 64, 32}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(m, k, r)
		b := randomMatrix(k, n, r)
		wantMul := NewMatrix(m, n)
		Mul(wantMul, a, b)
		ranges := [][2]int{{0, n}, {0, 0}, {n / 2, n}, {0, (n + 1) / 2}, {n / 3, 2*n/3 + 1}}
		for _, jr := range ranges {
			j0, j1 := jr[0], jr[1]
			if j1 > n {
				j1 = n
			}
			for _, workers := range []int{1, 2, 5} {
				got := randomMatrix(m, n, r) // poison so untouched columns are provably untouched
				keep := got.Clone()
				MatMulCols(got, a, b, j0, j1, workers)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						idx := i*n + j
						if j >= j0 && j < j1 {
							if got.Data[idx] != wantMul.Data[idx] {
								t.Fatalf("MatMulCols(%v) shape %v w=%d el (%d,%d): %v != %v",
									jr, s, workers, i, j, got.Data[idx], wantMul.Data[idx])
							}
						} else {
							if got.Data[idx] != keep.Data[idx] {
								t.Fatalf("column-range kernel touched column %d outside [%d,%d)", j, j0, j1)
							}
						}
					}
				}
			}
		}
	}
}

// TestAddRowBiasCols: the column-range bias add must match AddRowBias on
// the range and leave the rest untouched.
func TestAddRowBiasCols(t *testing.T) {
	r := rng.New(29)
	m := randomMatrix(9, 7, r)
	bias := NewVector(7)
	r.FillUniform(bias, -1, 1)
	want := m.Clone()
	AddRowBias(want, bias)
	got := m.Clone()
	AddRowBiasCols(got, bias, 2, 5)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			idx := i*m.Cols + j
			in := j >= 2 && j < 5
			if in && got.Data[idx] != want.Data[idx] {
				t.Fatalf("AddRowBiasCols el (%d,%d): %v != %v", i, j, got.Data[idx], want.Data[idx])
			}
			if !in && got.Data[idx] != m.Data[idx] {
				t.Fatalf("AddRowBiasCols touched column %d outside [2,5)", j)
			}
		}
	}
}

// TestAddRowBias: one addition per element, after the products.
func TestAddRowBias(t *testing.T) {
	r := rng.New(17)
	m := randomMatrix(9, 5, r)
	want := m.Clone()
	bias := NewVector(5)
	r.FillUniform(bias, -1, 1)
	for i := 0; i < want.Rows; i++ {
		want.Row(i).Add(bias)
	}
	AddRowBias(m, bias)
	matricesExactlyEqual(t, "AddRowBias", m, want)
}

// FuzzMatMulEquivalence fuzzes the blocked GEMM against the naive serial
// Mul (and MatMulT against per-row MulVec) on ragged shapes drawn from the
// fuzzer, asserting exact bitwise equality. Entries are finite uniforms
// seeded from the fuzz input, so the zero-skip in Mul is a true no-op.
func FuzzMatMulEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), uint64(1), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(9), uint8(1))
	f.Add(uint8(33), uint8(65), uint8(17), uint64(42), uint8(5))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed uint64, wRaw uint8) {
		m := 1 + int(mRaw)%80
		k := 1 + int(kRaw)%80
		n := 1 + int(nRaw)%80
		workers := 1 + int(wRaw)%6
		r := rng.New(seed)
		a := randomMatrix(m, k, r)
		b := randomMatrix(k, n, r)
		want := NewMatrix(m, n)
		Mul(want, a, b)
		got := NewMatrix(m, n)
		MatMul(got, a, b, workers)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMul(%dx%dx%d, w=%d) differs from Mul at %d: %v vs %v",
					m, k, n, workers, i, got.Data[i], want.Data[i])
			}
		}
		bt := randomMatrix(n, k, r)
		wantT := mulTByMulVec(a, bt)
		gotT := NewMatrix(m, n)
		MatMulT(gotT, a, bt, workers)
		for i := range gotT.Data {
			if gotT.Data[i] != wantT.Data[i] {
				t.Fatalf("MatMulT(%dx%dx%d, w=%d) differs from MulVec at %d: %v vs %v",
					m, k, n, workers, i, gotT.Data[i], wantT.Data[i])
			}
		}
	})
}
