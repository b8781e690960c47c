// Package stats provides the small descriptive-statistics toolkit used by
// the experiment harness and the solvers: means, standard deviations,
// percentiles by in-place selection, histograms, and a deterministic random
// source for reproducible simulations.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

var errPercentileRange = errors.New("stats: percentile out of [0,100]")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// Variance returns the population variance of xs (divisor n), or 0 for
// samples with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns the mean and population standard deviation in one pass
// over the data (Welford's algorithm).
func MeanStd(xs []float64) (mean, std float64) {
	var m, m2 float64
	for i, x := range xs {
		d := x - m
		m += d / float64(i+1)
		m2 += d * (x - m)
	}
	if len(xs) > 0 {
		std = math.Sqrt(m2 / float64(len(xs)))
	}
	return m, std
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile without the copy: it reorders xs in place
// and selects the order statistics instead of sorting, in O(len(xs))
// expected time. They are the values sort.Float64s would put at those ranks,
// NaN first, so the result is bit-identical to interpolating a sorted copy.
func PercentileInPlace(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, errPercentileRange
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectK(xs, lo)
	if lo == hi {
		return xs[lo], nil
	}
	// xs[lo+1:] holds everything ranked above lo; its least is rank hi.
	vhi := xs[hi]
	for _, v := range xs[hi+1:] {
		if less(v, vhi) {
			vhi = v
		}
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + vhi*frac, nil
}

// less is sort.Float64s's order: ascending, with NaN before everything.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectK rearranges xs in place so xs[k] holds the value sort.Float64s
// would put there, with xs[:k] ≤ xs[k] ≤ xs[k+1:] in that order. Hoare
// partitioning with median-of-three pivots; O(len(xs)) expected, zero
// allocations.
func selectK(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return // xs[j+1 : i] all rank equal to the pivot, k among them
		}
	}
}
