package stats

import (
	"math"
	"sort"
	"testing"
)

// percentileRef is the sort-based reference for Percentile: sort a copy
// with sort.Float64s (NaN first) and interpolate between closest ranks.
func percentileRef(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, errPercentileRange
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// fuzzSpecials are the values percentile selection must order exactly as
// sort.Float64s does.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1, -1,
}

// fuzzSample decodes one byte per value: the low bytes pick a special
// value, the rest a small multiple of 1/8, so duplicates are common.
func fuzzSample(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		if int(b) < len(fuzzSpecials) {
			xs[i] = fuzzSpecials[b]
		} else {
			xs[i] = float64(int8(b)) / 8
		}
	}
	return xs
}

// samePercentile reports whether two percentiles match: equal under ==
// (so −0 matches +0), or both NaN.
func samePercentile(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzPercentile checks the select-based Percentile and PercentileInPlace
// against the sort-based reference over samples with duplicates, ±0, ±Inf
// and NaN, at the fuzzed percentile and at the quartiles.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{20, 30, 40}, 50.0)
	f.Add([]byte{0, 0, 1, 2, 3, 4}, 50.0)           // NaNs, ±Inf, +0
	f.Add([]byte{3, 4, 3, 4, 200, 200, 16}, 37.5)   // ±0 and duplicates
	f.Add([]byte{5, 6, 7, 8, 9, 10, 0, 1, 2}, 90.0) // extremes
	f.Add([]byte{100}, 100.0)
	f.Add([]byte{}, 50.0)
	f.Add([]byte{1, 2}, -1.0)
	f.Add([]byte{1, 2}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		xs := fuzzSample(data)
		orig := append([]float64(nil), xs...)
		for _, q := range []float64{p, 0, 25, 50, 75, 100} {
			want, werr := percentileRef(xs, q)
			got, err := Percentile(xs, q)
			if (err == nil) != (werr == nil) || !samePercentile(got, want) {
				t.Fatalf("Percentile(%v, %v) = %v, %v; sorted reference %v, %v", xs, q, got, err, want, werr)
			}
			inPlace := append([]float64(nil), xs...)
			got, err = PercentileInPlace(inPlace, q)
			if (err == nil) != (werr == nil) || !samePercentile(got, want) {
				t.Fatalf("PercentileInPlace(%v, %v) = %v, %v; sorted reference %v, %v", xs, q, got, err, want, werr)
			}
			// Selection only permutes: sorted, both hold the same bits.
			sort.Float64s(inPlace)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for i := range sorted {
				if !samePercentile(inPlace[i], sorted[i]) {
					t.Fatalf("PercentileInPlace lost or changed values: %v vs %v", inPlace, sorted)
				}
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("Percentile mutated its input: %v, was %v", xs, orig)
			}
		}
	})
}
