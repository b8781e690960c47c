// Package dsp implements the signal-preprocessing stage of LION
// (Sec. IV-A): phase unwrapping and wrapping, moving-average smoothing, and
// resampling.
package dsp

import (
	"errors"
	"math"
	"sort"

	"github.com/rfid-lion/lion/internal/rf"
)

// Errors returned by the preprocessing functions.
var (
	ErrBadWindow = errors.New("dsp: window must be positive and odd")
	ErrMismatch  = errors.New("dsp: input slices must have equal length")
)

// Unwrap removes the modulo-2π jumps from a wrapped phase sequence.
// Whenever the jump between consecutive samples is at least π radians, it
// adds or subtracts multiples of 2π until the jump falls below π
// (Sec. IV-A-1). A jump of 3π or more, which no wrapped input produces, is
// reduced in one step by the nearest multiple of 2π, so arbitrarily large
// finite inputs still take O(1) work per sample. The input is not modified.
func Unwrap(wrapped []float64) []float64 {
	return UnwrapInto(make([]float64, len(wrapped)), wrapped)
}

// UnwrapInto is Unwrap writing into dst, which is grown as needed and
// returned resliced to len(wrapped). dst may alias wrapped (in-place
// unwrapping), and the arithmetic is identical to Unwrap's, so streamed
// callers reusing a buffer get bit-identical profiles with zero allocations
// in steady state.
func UnwrapInto(dst, wrapped []float64) []float64 {
	if cap(dst) < len(wrapped) {
		dst = make([]float64, len(wrapped))
	}
	dst = dst[:len(wrapped)]
	if len(wrapped) == 0 {
		return dst
	}
	prev := wrapped[0]
	dst[0] = prev
	offset := 0.0
	for i := 1; i < len(wrapped); i++ {
		cur := wrapped[i]
		d := cur - prev
		if math.Abs(d) >= 3*math.Pi {
			// No wrapped input jumps this far, and for a huge d the 2π
			// steps below would take unbounded time (1e300 − 2π == 1e300).
			offset -= 2 * math.Pi * math.Round(d/(2*math.Pi))
		} else {
			// At most a couple of 2π steps for a jump under 3π.
			for d >= math.Pi {
				offset -= 2 * math.Pi
				d -= 2 * math.Pi
			}
			for d <= -math.Pi {
				offset += 2 * math.Pi
				d += 2 * math.Pi
			}
		}
		dst[i] = cur + offset
		prev = cur
	}
	return dst
}

// Wrap maps every element of xs onto [0, 2π) with rf.WrapPhase. The input
// is not modified.
func Wrap(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = rf.WrapPhase(x)
	}
	return out
}

// MovingAverage smooths xs with a centred moving-average filter of the given
// odd window length (Sec. IV-A-2). Windows are truncated at the boundaries
// so the output has the same length as the input. The input is not modified.
func MovingAverage(xs []float64, window int) ([]float64, error) {
	return MovingAverageInto(make([]float64, len(xs)), xs, window)
}

// MovingAverageInto is MovingAverage writing into dst, which is grown as
// needed and returned resliced to len(xs). dst must not alias xs: the filter
// reads neighbours on both sides of each output index.
func MovingAverageInto(dst, xs []float64, window int) ([]float64, error) {
	if window <= 0 || window%2 == 0 {
		return nil, ErrBadWindow
	}
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	out := dst[:len(xs)]
	n, half := len(xs), window/2
	i := 0
	for ; i < n && i < half; i++ {
		out[i] = windowMean(xs, i, half)
	}
	// Whole windows, four outputs at a time: each output keeps its own
	// sum, added in index order as windowMean adds it, so the four
	// independent chains overlap without changing a bit.
	w := float64(window)
	for ; i+3 < n-half; i += 4 {
		var s0, s1, s2, s3 float64
		win := xs[i-half : i+half+4]
		for j := 0; j+3 < len(win); j++ {
			s0 += win[j]
			s1 += win[j+1]
			s2 += win[j+2]
			s3 += win[j+3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0/w, s1/w, s2/w, s3/w
	}
	for ; i < n; i++ {
		out[i] = windowMean(xs, i, half)
	}
	return out, nil
}

// windowMean is the mean of xs over the centred window of half-width half
// around i, truncated at the ends of xs.
func windowMean(xs []float64, i, half int) float64 {
	lo := max(i-half, 0)
	hi := min(i+half, len(xs)-1)
	var s float64
	for j := lo; j <= hi; j++ {
		s += xs[j]
	}
	return s / float64(hi-lo+1)
}

// LinearResample interpolates the series (times, values) at the query
// instants. Times must be strictly increasing. Queries outside the range
// clamp to the boundary values.
func LinearResample(times, values, queries []float64) ([]float64, error) {
	if len(times) != len(values) {
		return nil, ErrMismatch
	}
	if len(times) == 0 {
		return nil, errors.New("dsp: empty series")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, errors.New("dsp: times must be strictly increasing")
		}
	}
	out := make([]float64, len(queries))
	for qi, q := range queries {
		switch {
		case q <= times[0]:
			out[qi] = values[0]
		case q >= times[len(times)-1]:
			out[qi] = values[len(values)-1]
		default:
			i := sort.SearchFloat64s(times, q)
			// times[i-1] < q <= times[i]
			t0, t1 := times[i-1], times[i]
			frac := (q - t0) / (t1 - t0)
			out[qi] = values[i-1] + frac*(values[i]-values[i-1])
		}
	}
	return out, nil
}
