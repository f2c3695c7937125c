package exact

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestGroundStateSingleSite(t *testing.T) {
	// H = -(alpha X + beta Z): eigenvalues -+sqrt(alpha^2+beta^2).
	tim := hamiltonian.NewTIM([]float64{0.6}, []float64{0.8}, nil)
	res, err := GroundState(tim, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-(-1.0)) > 1e-9 {
		t.Fatalf("ground energy %v, want -1", res.Energy)
	}
}

func TestGroundStateMatchesDenseJacobi(t *testing.T) {
	r := rng.New(2)
	tim := hamiltonian.RandomTIM(6, r)
	dense := hamiltonian.Dense(tim)
	want, _, err := minEigDense(dense, 1<<6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GroundState(tim, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-want) > 1e-7 {
		t.Fatalf("Lanczos %v vs dense %v", res.Energy, want)
	}
}

func TestGroundVectorNonNegative(t *testing.T) {
	// Perron-Frobenius: with alpha > 0 the ground vector has a definite
	// sign; after fixing the global phase all entries are >= 0.
	r := rng.New(3)
	tim := hamiltonian.RandomTIM(7, r)
	res, err := GroundState(tim, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fix sign so the largest-magnitude entry is positive.
	imax, vmax := 0, 0.0
	for i, v := range res.Vector {
		if math.Abs(v) > vmax {
			vmax, imax = math.Abs(v), i
		}
	}
	sign := 1.0
	if res.Vector[imax] < 0 {
		sign = -1
	}
	for i, v := range res.Vector {
		if sign*v < -1e-8 {
			t.Fatalf("entry %d = %v has wrong sign", i, sign*v)
		}
	}
}

func TestGroundStateVarianceNearZero(t *testing.T) {
	r := rng.New(4)
	tim := hamiltonian.RandomTIM(6, r)
	res, err := GroundState(tim, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v := Variance(tim, res.Vector); v > 1e-8 {
		t.Fatalf("variance of eigenvector = %v, want ~0", v)
	}
}

// TestGroundStateRestartsUnconverged: the TIM instance of the facade's
// TIM(16, 3) does not converge within the default 80 Krylov vectors from
// ExactGroundEnergy's start (seed 7); restarting from the Ritz vector must
// reach a true eigenpair, ||Hv - Ev|| small.
func TestGroundStateRestartsUnconverged(t *testing.T) {
	tim := hamiltonian.RandomTIM(16, rng.New(3))
	res, err := GroundState(tim, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	hv := make([]float64, len(res.Vector))
	hamiltonian.Apply(tim, res.Vector, hv)
	var r2 float64
	for i, v := range res.Vector {
		d := hv[i] - res.Energy*v
		r2 += d * d
	}
	if r := math.Sqrt(r2); r > 1e-8 {
		t.Fatalf("residual ||Hv - Ev|| = %.3g at E = %v, want < 1e-8", r, res.Energy)
	}
}

func TestVarianceOfNonEigenvectorPositive(t *testing.T) {
	r := rng.New(5)
	tim := hamiltonian.RandomTIM(5, r)
	dim := 1 << 5
	psi := make([]float64, dim)
	r.FillUniform(psi, 0.1, 1)
	var norm float64
	for _, v := range psi {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range psi {
		psi[i] /= norm
	}
	if v := Variance(tim, psi); v < 1e-3 {
		t.Fatalf("variance of random state = %v, suspiciously small", v)
	}
}

func TestGroundStateDiagonalMaxCut(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomBernoulli(10, r)
	mc := hamiltonian.NewMaxCut(g)
	e, x, err := GroundStateDiagonal(mc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive max cut for comparison.
	best := 0.0
	tmp := make([]int, 10)
	for ix := 0; ix < 1<<10; ix++ {
		hamiltonian.IndexToBits(ix, tmp)
		if c := g.CutValue(tmp); c > best {
			best = c
		}
	}
	if got := mc.CutFromEnergy(e); math.Abs(got-best) > 1e-9 {
		t.Fatalf("diagonal ground cut %v, want %v", got, best)
	}
	if math.Abs(g.CutValue(x)-best) > 1e-9 {
		t.Fatalf("returned configuration has cut %v, want %v", g.CutValue(x), best)
	}
}

func TestGroundStateDiagonalRejectsOffDiagonal(t *testing.T) {
	tim := hamiltonian.RandomTIM(4, rng.New(7))
	if _, _, err := GroundStateDiagonal(tim, 0); err == nil {
		t.Fatal("expected error for non-diagonal Hamiltonian")
	}
}

func TestGroundStateSizeLimit(t *testing.T) {
	alpha := make([]float64, MaxSites+1)
	beta := make([]float64, MaxSites+1)
	tim := hamiltonian.NewTIM(alpha, beta, nil)
	if _, err := GroundState(tim, 0, 1); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestGroundStateDeterministicInSeed(t *testing.T) {
	tim := hamiltonian.RandomTIM(5, rng.New(8))
	a, err := GroundState(tim, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroundState(tim, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy {
		t.Fatal("same seed produced different energies")
	}
}

func BenchmarkGroundState12(b *testing.B) {
	tim := hamiltonian.RandomTIM(12, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroundState(tim, 60, 1); err != nil {
			b.Fatal(err)
		}
	}
}
