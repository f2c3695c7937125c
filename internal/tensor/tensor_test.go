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
	if !Equal(v, want, 0) {
		t.Fatalf("AXPY got %v", v)
	}
	v.Scale(0.5)
	if !Equal(v, Vector{10.5, 21, 31.5}, 0) {
		t.Fatalf("Scale got %v", v)
	}
}

func TestSumMaxNorm(t *testing.T) {
	v := Vector{3, -4, 1}
	if v.Sum() != 0 {
		t.Errorf("Sum = %v", v.Sum())
	}
	if v.Max() != 3 {
		t.Errorf("Max = %v", v.Max())
	}
	if math.Abs(Vector{3, 4}.Norm2()-5) > 1e-15 {
		t.Errorf("Norm2 = %v", Vector{3, 4}.Norm2())
	}
}

// TestMulVecAgainstNaive: MulVec advances four rows at a time, and every
// element must still be bitwise the plain ascending dot of its row — the
// scalar recurrence of the RNN and the RBM's theta rest on that — for row
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
		m.T().MulVec(want, x)
		if !Equal(got, want, 1e-12) {
			t.Fatalf("MulVecT mismatch: %v vs %v", got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(3)
	m := randMatrix(r, 7, 5)
	tt := m.T().T()
	if !Equal(Vector(m.Data), Vector(tt.Data), 0) {
		t.Fatal("T().T() differs from original")
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
	if !Equal(Vector(out.Data), Vector(a.Data), 1e-14) {
		t.Fatal("A*I != A")
	}
	Mul(out, id, a)
	if !Equal(Vector(out.Data), Vector(a.Data), 1e-14) {
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
	if !Equal(Vector(abc1.Data), Vector(abc2.Data), 1e-12) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestBatchMulMatchesPerSample(t *testing.T) {
	r := rng.New(7)
	for _, workers := range []int{1, 4} {
		src := NewBatch(13, 5)
		r.FillUniform(src.Data, -1, 1)
		w := randMatrix(r, 8, 5)
		dst := NewBatch(13, 8)
		BatchMul(dst, src, w, workers)
		for s := 0; s < 13; s++ {
			want := NewVector(8)
			w.MulVec(want, src.Sample(s))
			if !Equal(dst.Sample(s), want, 1e-13) {
				t.Fatalf("sample %d mismatch", s)
			}
		}
	}
}

func TestReLUSigmoid(t *testing.T) {
	v := Vector{-2, 0, 3}
	ReLU(v)
	if !Equal(v, Vector{0, 0, 3}, 0) {
		t.Fatalf("ReLU got %v", v)
	}
	s := Vector{0}
	Sigmoid(s)
	if math.Abs(s[0]-0.5) > 1e-15 {
		t.Fatalf("Sigmoid(0) = %v", s[0])
	}
	s = Vector{100, -100}
	Sigmoid(s)
	if s[0] < 0.999 || s[1] > 0.001 {
		t.Fatalf("Sigmoid saturation got %v", s)
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

func BenchmarkBatchMul(b *testing.B) {
	r := rng.New(1)
	src := NewBatch(256, 128)
	r.FillUniform(src.Data, -1, 1)
	w := randMatrix(r, 128, 128)
	dst := NewBatch(256, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMul(dst, src, w, 0)
	}
}
