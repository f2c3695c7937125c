package stats

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 1.25 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if math.Abs(SampleVariance(xs)-5.0/3) > 1e-14 {
		t.Errorf("SampleVariance = %v", SampleVariance(xs))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdErr(nil) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
	if SampleVariance([]float64{5}) != 0 || StdErr([]float64{5}) != 0 {
		t.Fatal("singleton sample variance should be 0")
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	r.FillNorm(xs, 2.5)
	m, s := MeanStd(xs)
	if math.Abs(m-Mean(xs)) > 1e-12 || math.Abs(s-math.Sqrt(Variance(xs))) > 1e-10 {
		t.Fatalf("MeanStd (%v,%v) vs (%v,%v)", m, s, Mean(xs), math.Sqrt(Variance(xs)))
	}
}

func TestStdErrShrinks(t *testing.T) {
	r := rng.New(2)
	small := make([]float64, 100)
	big := make([]float64, 10000)
	r.FillNorm(small, 1)
	r.FillNorm(big, 1)
	if StdErr(big) >= StdErr(small) {
		t.Fatalf("StdErr did not shrink with sample size: %v vs %v", StdErr(big), StdErr(small))
	}
}

func TestAutocorrelationIID(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 20000)
	r.FillNorm(xs, 1)
	rho := Autocorrelation(xs, 5)
	if rho[0] != 1 {
		t.Fatalf("rho(0) = %v", rho[0])
	}
	for k := 1; k <= 5; k++ {
		if math.Abs(rho[k]) > 0.05 {
			t.Errorf("iid rho(%d) = %v, want ~0", k, rho[k])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with coefficient phi has rho(k) ~ phi^k.
	r := rng.New(4)
	const phi = 0.8
	xs := make([]float64, 50000)
	x := 0.0
	for i := range xs {
		x = phi*x + r.Norm()
		xs[i] = x
	}
	rho := Autocorrelation(xs, 3)
	for k := 1; k <= 3; k++ {
		want := math.Pow(phi, float64(k))
		if math.Abs(rho[k]-want) > 0.05 {
			t.Errorf("AR1 rho(%d) = %v, want ~%v", k, rho[k], want)
		}
	}
	// tau = (1+phi)/(1-phi) = 9 for phi=0.8.
	tau := IntegratedAutocorrTime(xs)
	if tau < 6 || tau > 12 {
		t.Errorf("tau = %v, want ~9", tau)
	}
	if ess := EffectiveSampleSize(xs); ess > float64(len(xs))/5 {
		t.Errorf("ESS = %v, should be much less than N for correlated series", ess)
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	rho := Autocorrelation([]float64{2, 2, 2, 2}, 2)
	for _, v := range rho {
		if v != 1 {
			t.Fatalf("constant series rho = %v", rho)
		}
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{-10, 5, 2}
	div := Normalize(xs)
	if div != 10 {
		t.Fatalf("divisor = %v", div)
	}
	if xs[0] != -1 || xs[1] != 0.5 || xs[2] != 0.2 {
		t.Fatalf("normalized = %v", xs)
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 || zero[0] != 0 {
		t.Fatal("zero slice mishandled")
	}
}
