package perf

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The tolerance keeps float rounding (99.9% of 10000 = 9990.000000000002)
// from pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// Median is the nearest-rank 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// tailCandidates are the percentiles TailPercentile chooses among, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// TailPercentile picks the highest percentile in tailCandidates that still
// has at least ten samples beyond its nearest rank, so a tail is never read
// off a handful of outliers. ok is false when even the lowest candidate has
// fewer than ten samples beyond it.
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// Geomean is the geometric mean of strictly positive values.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("perf: geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("perf: geomean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones computed from the
// benchmark's JSON output with the standard library. It needs at least
// two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
