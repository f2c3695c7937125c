// Package tensor implements the dense float64 linear algebra used by the
// neural wavefunctions: vectors, row-major matrices, batched matrix products
// and the row sweeps over batches of per-sample rows. Kernels are written
// cache-friendly (row-major, j-inner loops), the batched entry points can
// fan out across goroutines, and the row updates underneath run on AVX2
// lanes where the CPU has them, rounding exactly like the Go loops
// (simd.go).
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Dot returns the inner product of v and w. The lengths must match.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// AXPY computes v += a*w in place.
func (v Vector) AXPY(a float64, w Vector) {
	if len(v) != len(w) {
		panic("tensor: AXPY length mismatch")
	}
	vecAxpy(v, w, a)
}

// Scale multiplies every element by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Add computes v += w in place (bitwise AXPY(1, w): 1*x is x exactly).
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic("tensor: Add length mismatch")
	}
	vecAdd(v, w)
}

// Sub computes v -= w in place.
func (v Vector) Sub(w Vector) { v.AXPY(-1, w) }

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to c.
func (m *Matrix) Fill(c float64) {
	for i := range m.Data {
		m.Data[i] = c
	}
}

// MulVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst must not alias x. Four rows advance together, each through its
// own accumulator in ascending column order, so every dst[i] is bitwise the
// plain dot of row i with x while the four add chains overlap instead of
// waiting on one another.
func (m *Matrix) MulVec(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("tensor: MulVec dimension mismatch")
	}
	c, i := m.Cols, 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*c : (i+1)*c][:len(x)]
		r1 := m.Data[(i+1)*c : (i+2)*c][:len(x)]
		r2 := m.Data[(i+2)*c : (i+3)*c][:len(x)]
		r3 := m.Data[(i+3)*c : (i+4)*c][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		var s float64
		for j, w := range m.Data[i*c : (i+1)*c] {
			s += float64(w * x[j])
		}
		dst[i] = s
	}
}

// MulVecT computes dst = m^T * x without materializing the transpose.
// dst must have length m.Cols and x length m.Rows; dst must not alias x.
func (m *Matrix) MulVecT(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("tensor: MulVecT dimension mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += float64(w * xi)
		}
	}
}

// Mul computes dst = a*b. Shapes must agree; dst must not alias a or b.
func Mul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: Mul dimension mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// Batch is a batch of row vectors: Data[s] is sample s.
// It is the batched input/activation format used by the wavefunctions.
type Batch struct {
	N, Dim int
	Data   []float64 // row-major N x Dim
}

// NewBatch returns a zero batch of n samples of width dim.
func NewBatch(n, dim int) *Batch {
	return &Batch{N: n, Dim: dim, Data: make([]float64, n*dim)}
}

// Sample returns sample s as a vector aliasing the batch storage.
func (b *Batch) Sample(s int) Vector { return Vector(b.Data[s*b.Dim : (s+1)*b.Dim]) }

// Clone returns a deep copy.
func (b *Batch) Clone() *Batch {
	out := NewBatch(b.N, b.Dim)
	copy(out.Data, b.Data)
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(v Vector) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}
