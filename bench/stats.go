package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile reads the p-quantile (0 <= p <= 1) off an ascending slice,
// interpolating linearly between the two closest ranks so the statistic
// moves continuously when one sample changes.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median is percentile(sorted(xs), 0.5).
func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// quartiles returns the 25th, 50th and 75th percentile of an ascending
// slice: what a reader needs to tell a noisy run from a slow one.
func quartiles(asc []float64) [3]float64 {
	return [3]float64{percentile(asc, 0.25), percentile(asc, 0.5), percentile(asc, 0.75)}
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeNs times fn for roughly budget and returns the median ns per call
// over equal chunks of calls, plus the number of calls timed. A chunk mean
// hides timer granularity for nanosecond-scale bodies; the median over
// chunks hides the noisy neighbour. fn runs once untimed first so lazy
// caches are built.
func timeNs(budget time.Duration, fn func()) (nsPerCall float64, calls int) {
	fn()
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	const chunks = 7
	reps := int(budget / chunks / one)
	if reps < 1 {
		reps = 1
	}
	var per []float64
	start := time.Now()
	for len(per) < chunks && (len(per) < 2 || time.Since(start) < budget) {
		c0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(c0).Nanoseconds())/float64(reps))
		calls += reps
	}
	return median(per), calls
}

// sliceRates cuts a timed window into equal slices and returns the rate of
// operations per second in each. An operation counts towards a slice by the
// share of its duration that falls into it, so the rates are exact for a
// serial loop of a few long steps per slice and for thousands of overlapping
// requests alike.
func sliceRates(startMS, durMS []float64, wall time.Duration, slices int) []float64 {
	width := ms(wall) / float64(slices)
	rates := make([]float64, slices)
	for i, s := range startMS {
		e := s + durMS[i]
		for k := int(s / width); k < slices && float64(k)*width < e; k++ {
			lo, hi := math.Max(s, float64(k)*width), math.Min(e, float64(k+1)*width)
			rates[k] += (hi - lo) / durMS[i] / (width / 1000)
		}
	}
	return rates
}
