package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func randMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

func randVector(r *rng.Rand, n int) Vector {
	v := NewVector(n)
	r.FillUniform(v, -1, 1)
	return v
}

// equal reports whether two vectors differ by at most tol elementwise.
func equal(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestDotBasic(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched Dot")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestAXPYAndScale(t *testing.T) {
	v := Vector{1, 2, 3}
	v.AXPY(2, Vector{10, 20, 30})
	want := Vector{21, 42, 63}
	if !equal(v, want, 0) {
		t.Fatalf("AXPY got %v", v)
	}
	v.Scale(0.5)
	if !equal(v, Vector{10.5, 21, 31.5}, 0) {
		t.Fatalf("Scale got %v", v)
	}
}

func TestNorm2(t *testing.T) {
	if math.Abs(Vector{3, 4}.Norm2()-5) > 1e-15 {
		t.Errorf("Norm2 = %v", Vector{3, 4}.Norm2())
	}
}

// TestMulVecAgainstNaive: MulVec advances four rows at a time, and every
// element must still be bitwise the plain ascending dot of its row — the
// RBM's theta rests on that — for row
// counts of every remainder mod 4.
func TestMulVecAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+trial%13, 1+r.Intn(20)
		m := randMatrix(r, rows, cols)
		x := randVector(r, cols)
		got := NewVector(rows)
		m.MulVec(got, x)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += m.At(i, j) * x[j]
			}
			if got[i] != want {
				t.Fatalf("%dx%d: MulVec[%d] = %v, want exactly %v", rows, cols, i, got[i], want)
			}
		}
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		m := randMatrix(r, rows, cols)
		x := randVector(r, rows)
		got := NewVector(cols)
		m.MulVecT(got, x)
		want := NewVector(cols)
		for j := range want {
			for i := 0; i < rows; i++ {
				want[j] += m.At(i, j) * x[i]
			}
		}
		if !equal(got, want, 1e-12) {
			t.Fatalf("MulVecT mismatch: %v vs %v", got, want)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(5)
	n := 9
	a := randMatrix(r, n, n)
	id := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	out := NewMatrix(n, n)
	Mul(out, a, id)
	if !equal(Vector(out.Data), Vector(a.Data), 1e-14) {
		t.Fatal("A*I != A")
	}
	Mul(out, id, a)
	if !equal(Vector(out.Data), Vector(a.Data), 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulAssociativity(t *testing.T) {
	r := rng.New(6)
	a, b, c := randMatrix(r, 4, 6), randMatrix(r, 6, 5), randMatrix(r, 5, 3)
	ab := NewMatrix(4, 5)
	Mul(ab, a, b)
	abc1 := NewMatrix(4, 3)
	Mul(abc1, ab, c)
	bc := NewMatrix(6, 3)
	Mul(bc, b, c)
	abc2 := NewMatrix(4, 3)
	Mul(abc2, a, bc)
	if !equal(Vector(abc1.Data), Vector(abc2.Data), 1e-12) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestReLU(t *testing.T) {
	v := Vector{-2, 0, 3}
	ReLU(v)
	if !equal(v, Vector{0, 0, 3}, 0) {
		t.Fatalf("ReLU got %v", v)
	}
}

func TestDotLinearityProperty(t *testing.T) {
	r := rng.New(8)
	f := func(seed uint8) bool {
		rr := rng.New(uint64(seed))
		n := 1 + rr.Intn(30)
		a, b, c := randVector(rr, n), randVector(rr, n), randVector(rr, n)
		alpha := rr.Uniform(-2, 2)
		// <a, alpha*b + c> == alpha<a,b> + <a,c>
		bc := b.Clone()
		bc.Scale(alpha)
		bc.Add(c)
		lhs := a.Dot(bc)
		rhs := alpha*a.Dot(b) + a.Dot(c)
		return math.Abs(lhs-rhs) < 1e-10
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	mc := m.Clone()
	mc.Set(0, 0, 7)
	if m.At(0, 0) != 5 {
		t.Fatal("Matrix Clone aliases original")
	}
	b := NewBatch(2, 2)
	b.Data[0] = 3
	bcl := b.Clone()
	bcl.Data[0] = 4
	if b.Data[0] != 3 {
		t.Fatal("Batch Clone aliases original")
	}
}

func BenchmarkMulVec512(b *testing.B) {
	r := rng.New(1)
	m := randMatrix(r, 512, 512)
	x := randVector(r, 512)
	dst := NewVector(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}
