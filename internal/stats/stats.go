// Package stats provides the summary statistics and Monte Carlo diagnostics
// used across the VQMC training loop and the experiment harness.
package stats

import "math"

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (divide by N).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (divide by N-1).
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Variance(xs) * float64(len(xs)) / float64(len(xs)-1)
}

// StdErr returns the standard error of the mean using the sample variance.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return math.Sqrt(SampleVariance(xs) / float64(len(xs)))
}

// MeanStd returns mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += float64(x * x)
	}
	n := float64(len(xs))
	mean = s / n
	v := s2/n - float64(mean*mean)
	if v < 0 {
		v = 0 // guard against cancellation
	}
	return mean, math.Sqrt(v)
}

// Autocorrelation returns the normalized autocorrelation function of xs at
// lags 0..maxLag (inclusive). Lag 0 is 1 by construction. A constant series
// returns 1 at every lag.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	out := make([]float64, maxLag+1)
	m := Mean(xs)
	var c0 float64
	for _, x := range xs {
		c0 += float64((x - m) * (x - m))
	}
	if c0 == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < n; i++ {
			c += float64((xs[i] - m) * (xs[i+lag] - m))
		}
		out[lag] = c / c0
	}
	return out
}

// IntegratedAutocorrTime estimates tau = 1 + 2 sum_k rho(k), truncating the
// sum at the first non-positive autocorrelation (Geyer's initial positive
// sequence heuristic, simplified).
func IntegratedAutocorrTime(xs []float64) float64 {
	maxLag := len(xs) / 2
	if maxLag < 1 {
		return 1
	}
	rho := Autocorrelation(xs, maxLag)
	tau := 1.0
	for k := 1; k <= maxLag; k++ {
		if rho[k] <= 0 {
			break
		}
		tau += 2 * rho[k]
	}
	return tau
}

// EffectiveSampleSize returns N / tau, the number of effectively independent
// samples in a correlated series.
func EffectiveSampleSize(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(len(xs)) / IntegratedAutocorrTime(xs)
}

// Normalize divides xs elementwise by the largest magnitude among them (the
// normalization used in the paper's Figure 4); it returns the divisor. A
// zero slice is left unchanged and returns 0.
func Normalize(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if m == 0 {
		return 0
	}
	for i := range xs {
		xs[i] /= m
	}
	return m
}
