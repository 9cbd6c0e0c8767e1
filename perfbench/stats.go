package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a tail percentile
// (one above the median) before it is reported: p99 needs 1000 samples,
// p90 needs 100. Fewer samples make the "percentile" an order statistic
// of a handful of runs, which is what made earlier tail figures noisy.
const minTailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of samples by nearest
// rank, and false when p lies above the median and fewer than
// minTailSamples samples lie beyond it. The median itself is reported
// for any non-empty sample set.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	if p == 0.5 {
		return median(samples), true
	}
	// Nearest rank, 1-based; the epsilon keeps 0.99*1000 from rounding up.
	rank := max(1, int(math.Ceil(p*float64(n)-1e-9)))
	if p > 0.5 && n-rank < minTailSamples {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to fractional milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
