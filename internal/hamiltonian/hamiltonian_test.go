package hamiltonian

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestBitsRoundTrip(t *testing.T) {
	f := func(ix uint16) bool {
		x := make([]int, 16)
		IndexToBits(int(ix), x)
		return BitsToIndex(x) == int(ix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpin(t *testing.T) {
	if Spin(0) != 1 || Spin(1) != -1 {
		t.Fatalf("Spin(0)=%v Spin(1)=%v", Spin(0), Spin(1))
	}
}

// brute-force TIM energy from the operator definition, for cross-checking
// the O(n^2) Diagonal implementation.
func bruteDiag(tim *TIM, x []int) float64 {
	n := tim.n
	var e float64
	for i := 0; i < n; i++ {
		e -= tim.Beta[i] * Spin(x[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e -= tim.BetaJ[i*n+j] * Spin(x[i]) * Spin(x[j])
		}
	}
	return e
}

func TestTIMDiagonalMatchesBrute(t *testing.T) {
	r := rng.New(1)
	tim := RandomTIM(9, r)
	x := make([]int, 9)
	for trial := 0; trial < 50; trial++ {
		r.FillBits(x)
		if d, b := tim.Diagonal(x), bruteDiag(tim, x); math.Abs(d-b) > 1e-12 {
			t.Fatalf("Diagonal=%v brute=%v", d, b)
		}
	}
}

func TestTIMDiagonalDelta(t *testing.T) {
	r := rng.New(2)
	tim := RandomTIM(8, r)
	x := make([]int, 8)
	y := make([]int, 8)
	for trial := 0; trial < 30; trial++ {
		r.FillBits(x)
		b := r.Intn(8)
		copy(y, x)
		y[b] = 1 - y[b]
		want := tim.Diagonal(y) - tim.Diagonal(x)
		got := tim.DiagonalDelta(x, b)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("DiagonalDelta=%v, want %v", got, want)
		}
	}
}

func TestTIMFlipTerms(t *testing.T) {
	alpha := []float64{0.5, 0, 0.25}
	tim := NewTIM(alpha, make([]float64, 3), nil)
	fts := tim.FlipTerms()
	if len(fts) != 2 {
		t.Fatalf("FlipTerms = %v, want 2 entries (zero alpha skipped)", fts)
	}
	if fts[0] != (FlipTerm{Bit: 0, Amp: -0.5}) || fts[1] != (FlipTerm{Bit: 2, Amp: -0.25}) {
		t.Fatalf("FlipTerms = %v", fts)
	}
}

func TestNegativeAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative alpha")
		}
	}()
	NewTIM([]float64{-1}, []float64{0}, nil)
}

func TestDenseSymmetric(t *testing.T) {
	r := rng.New(3)
	tim := RandomTIM(6, r)
	d := Dense(tim)
	dim := 1 << 6
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if d[i*dim+j] != d[j*dim+i] {
				t.Fatalf("dense matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDenseOffDiagonalNonPositive(t *testing.T) {
	r := rng.New(4)
	tim := RandomTIM(6, r)
	d := Dense(tim)
	dim := 1 << 6
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if i != j && d[i*dim+j] > 0 {
				t.Fatalf("positive off-diagonal at (%d,%d): %v", i, j, d[i*dim+j])
			}
		}
	}
}

func TestDenseMatchesEq13SmallCase(t *testing.T) {
	// n=1: H = -(alpha X + beta Z). In the basis {|0>, |1>} with Z|0>=+|0>:
	// H = [[-beta, -alpha], [-alpha, beta]].
	tim := NewTIM([]float64{0.7}, []float64{0.3}, nil)
	d := Dense(tim)
	want := []float64{-0.3, -0.7, -0.7, 0.3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-15 {
			t.Fatalf("dense = %v, want %v", d, want)
		}
	}
}

func TestDenseTwoSiteCoupling(t *testing.T) {
	// n=2, only beta_01 = 1: H = -Z_0 Z_1, diagonal (-1, 1, 1, -1) in the
	// index order 00, 10, 01, 11 (site 0 = LSB).
	betaJ := []float64{0, 1, 0, 0}
	tim := NewTIM([]float64{0, 0}, []float64{0, 0}, betaJ)
	d := Dense(tim)
	wantDiag := []float64{-1, 1, 1, -1}
	for i := 0; i < 4; i++ {
		if math.Abs(d[i*4+i]-wantDiag[i]) > 1e-15 {
			t.Fatalf("diag[%d] = %v, want %v", i, d[i*4+i], wantDiag[i])
		}
	}
}

func TestApplyMatchesDense(t *testing.T) {
	r := rng.New(5)
	tim := RandomTIM(7, r)
	dim := 1 << 7
	d := Dense(tim)
	v := make([]float64, dim)
	r.FillUniform(v, -1, 1)
	got := make([]float64, dim)
	Apply(tim, v, got)
	for i := 0; i < dim; i++ {
		var want float64
		for j := 0; j < dim; j++ {
			want += d[i*dim+j] * v[j]
		}
		if math.Abs(got[i]-want) > 1e-10 {
			t.Fatalf("Apply[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestMaxCutDiagonalCutIdentity(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomBernoulli(12, r)
	mc := NewMaxCut(g)
	x := make([]int, 12)
	for trial := 0; trial < 40; trial++ {
		r.FillBits(x)
		e := mc.Diagonal(x)
		if math.Abs(mc.CutFromEnergy(e)-g.CutValue(x)) > 1e-10 {
			t.Fatalf("CutFromEnergy(%v) = %v, want %v", e, mc.CutFromEnergy(e), g.CutValue(x))
		}
	}
}

func TestMaxCutGroundStateIsMaxCut(t *testing.T) {
	// Exhaustive check on a small graph: the configuration minimizing the
	// energy is the one maximizing the cut.
	r := rng.New(7)
	g := graph.RandomBernoulli(8, r)
	mc := NewMaxCut(g)
	x := make([]int, 8)
	bestCut, minE := -1.0, math.Inf(1)
	var argCut, argE int
	for ix := 0; ix < 256; ix++ {
		IndexToBits(ix, x)
		if c := g.CutValue(x); c > bestCut {
			bestCut, argCut = c, ix
		}
		if e := mc.Diagonal(x); e < minE {
			minE, argE = e, ix
		}
	}
	IndexToBits(argE, x)
	if g.CutValue(x) != bestCut {
		t.Fatalf("energy minimizer has cut %v, max cut is %v (argCut=%d argE=%d)",
			g.CutValue(x), bestCut, argCut, argE)
	}
}

func TestMaxCutIsDiagonal(t *testing.T) {
	g := graph.RandomBernoulli(5, rng.New(8))
	mc := NewMaxCut(g)
	if len(mc.FlipTerms()) != 0 {
		t.Fatal("MaxCut should have no off-diagonal terms")
	}
	if Sparsity(mc) != 1 {
		t.Fatalf("Sparsity = %d, want 1", Sparsity(mc))
	}
}

func TestSparsityTIM(t *testing.T) {
	tim := RandomTIM(10, rng.New(9))
	// alpha ~ U(0,1) is almost surely nonzero, so sparsity = n+1.
	if s := Sparsity(tim); s != 11 {
		t.Fatalf("Sparsity = %d, want 11", s)
	}
}

func BenchmarkTIMDiagonal(b *testing.B) {
	tim := RandomTIM(500, rng.New(1))
	x := make([]int, 500)
	rng.New(2).FillBits(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tim.Diagonal(x)
	}
}

func BenchmarkTIMDiagonalDelta(b *testing.B) {
	tim := RandomTIM(500, rng.New(1))
	x := make([]int, 500)
	rng.New(2).FillBits(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tim.DiagonalDelta(x, i%500)
	}
}
