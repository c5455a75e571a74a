package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule on a sorted copy; xs itself is left untouched.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minimum returns the smallest of xs, 0 when there are none.
func minimum(xs []float64) float64 { return percentile(xs, 0) }

// windowed splits xs, in time order, into w contiguous windows and
// returns the median of the windows' q-quantiles, so that one window of
// host interference moves the result less than it moves a pooled
// quantile.
func windowed(xs []float64, w int, q float64) float64 {
	if len(xs) < w {
		return percentile(xs, q)
	}
	per := make([]float64, w)
	for i := range per {
		per[i] = percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], q)
	}
	return median(per)
}

// tailQuantile is the highest quantile among p90, p99 and p99.9 that has
// at least ten samples beyond it; 0 when even p90 has fewer. A tail read
// from fewer than ten samples is a single outlier, not a percentile.
func tailQuantile(n int) float64 {
	q := 0.0
	for _, c := range []float64{0.9, 0.99, 0.999} {
		// Samples beyond the nearest-rank index percentile uses.
		if n-int(math.Ceil(c*float64(n)-1e-9)) >= 10 {
			q = c
		}
	}
	return q
}

// tailNote formats the tail of xs at tailQuantile(len(xs)) for the
// diagnostic lines, e.g. "update p99 41.2 ms (n=2048)".
func tailNote(what string, xs []float64) string {
	q := tailQuantile(len(xs))
	if q == 0 {
		return fmt.Sprintf("%s tail n/a (n=%d)", what, len(xs))
	}
	return fmt.Sprintf("%s p%g %.4g ms (n=%d)", what, 100*q, percentile(xs, q), len(xs))
}
