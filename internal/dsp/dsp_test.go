package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rfid-lion/lion/internal/rf"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sliceAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestUnwrapRecoversLinearRamp(t *testing.T) {
	// A linear phase ramp wrapped into [0,2π) must unwrap back to a ramp
	// (up to the initial value's branch).
	n := 500
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 0.5 + 0.11*float64(i)
		wrapped[i] = rf.WrapPhase(truth[i])
	}
	un := Unwrap(wrapped)
	for i := range un {
		if !almostEq(un[i]-un[0], truth[i]-truth[0], 1e-9) {
			t.Fatalf("sample %d: unwrapped delta %v, want %v",
				i, un[i]-un[0], truth[i]-truth[0])
		}
	}
}

func TestUnwrapDescendingRamp(t *testing.T) {
	n := 300
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 100 - 0.2*float64(i)
		wrapped[i] = rf.WrapPhase(truth[i])
	}
	un := Unwrap(wrapped)
	for i := range un {
		if !almostEq(un[i]-un[0], truth[i]-truth[0], 1e-9) {
			t.Fatalf("sample %d: unwrapped delta %v, want %v",
				i, un[i]-un[0], truth[i]-truth[0])
		}
	}
}

func TestUnwrapEdgeCases(t *testing.T) {
	if got := Unwrap(nil); len(got) != 0 {
		t.Errorf("Unwrap(nil) = %v", got)
	}
	if got := Unwrap([]float64{1.5}); !sliceAlmostEq(got, []float64{1.5}, 0) {
		t.Errorf("Unwrap(single) = %v", got)
	}
	// Input must not be modified.
	in := []float64{0.1, 6.2, 0.2}
	_ = Unwrap(in)
	if in[1] != 6.2 {
		t.Error("Unwrap mutated input")
	}
}

func TestUnwrapPropertyConsecutiveJumpsBelowPi(t *testing.T) {
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			in = append(in, rf.WrapPhase(x))
		}
		un := Unwrap(in)
		for i := 1; i < len(un); i++ {
			if math.Abs(un[i]-un[i-1]) >= math.Pi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnwrapPropertyWrapInverts(t *testing.T) {
	// Wrapping the unwrapped sequence returns the original wrapped values.
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			in = append(in, rf.WrapPhase(x))
		}
		back := Wrap(Unwrap(in))
		for i := range in {
			d := math.Abs(back[i] - in[i])
			if d > 1e-9 && math.Abs(d-2*math.Pi) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got, err := MovingAverage(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3, 4, 4.5}
	if !sliceAlmostEq(got, want, 1e-12) {
		t.Errorf("MovingAverage = %v, want %v", got, want)
	}
	// Window 1 is the identity.
	id, err := MovingAverage(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceAlmostEq(id, xs, 0) {
		t.Errorf("window-1 = %v", id)
	}
}

func TestMovingAverageValidation(t *testing.T) {
	if _, err := MovingAverage([]float64{1}, 0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("window 0 err = %v", err)
	}
	if _, err := MovingAverage([]float64{1}, 2); !errors.Is(err, ErrBadWindow) {
		t.Errorf("even window err = %v", err)
	}
}

func TestMovingAverageReducesNoiseVariance(t *testing.T) {
	// Smoothing white noise must shrink its variance by roughly the window
	// size.
	n := 5000
	xs := make([]float64, n)
	seed := uint64(12345)
	for i := range xs {
		// Cheap deterministic pseudo-noise.
		seed = seed*6364136223846793005 + 1442695040888963407
		xs[i] = float64(int64(seed>>11))/float64(1<<52) - 0.5
	}
	sm, err := MovingAverage(xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	varOf := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += x
		}
		m /= float64(len(v))
		var s float64
		for _, x := range v {
			s += (x - m) * (x - m)
		}
		return s / float64(len(v))
	}
	if r := varOf(sm) / varOf(xs); r > 0.25 {
		t.Errorf("smoothing reduced variance only by factor %v", 1/r)
	}
}

func TestLinearResample(t *testing.T) {
	times := []float64{0, 1, 2}
	values := []float64{0, 10, 0}
	got, err := LinearResample(times, values, []float64{-1, 0, 0.5, 1.5, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 5, 5, 0, 0}
	if !sliceAlmostEq(got, want, 1e-12) {
		t.Errorf("resample = %v, want %v", got, want)
	}
}

func TestLinearResampleValidation(t *testing.T) {
	if _, err := LinearResample([]float64{0, 1}, []float64{0}, nil); !errors.Is(err, ErrMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := LinearResample(nil, nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := LinearResample([]float64{0, 0}, []float64{1, 2}, nil); err == nil {
		t.Error("non-increasing times accepted")
	}
}

// TestUnwrapIntoMatchesUnwrap: the Into variant is bit-identical to Unwrap,
// reuses a caller buffer without reallocating, supports in-place aliasing,
// and grows a too-small destination.
func TestUnwrapIntoMatchesUnwrap(t *testing.T) {
	wrapped := make([]float64, 200)
	for i := range wrapped {
		wrapped[i] = rf.WrapPhase(0.37 * float64(i))
	}
	want := Unwrap(wrapped)

	buf := make([]float64, len(wrapped))
	got := UnwrapInto(buf, wrapped)
	if &got[0] != &buf[0] {
		t.Error("UnwrapInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// In-place: dst aliases the input.
	inPlace := append([]float64(nil), wrapped...)
	got = UnwrapInto(inPlace, inPlace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-place UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Growth: nil dst is legal and the result is still correct.
	got = UnwrapInto(nil, wrapped)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grown UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := UnwrapInto(nil, nil); len(out) != 0 {
		t.Errorf("UnwrapInto(nil, nil) = %v, want empty", out)
	}
}

// TestMovingAverageMatchesInOrderSums pins the filter, bit for bit, to a
// per-output sum taken in index order from zero and divided by the window
// count, on every length up to 40 and windows from 1 to wider than the
// input, over values of mixed magnitude and sign (so any reordering of a
// sum shows) with signed zeros among them.
func TestMovingAverageMatchesInOrderSums(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			if rng.Intn(8) == 0 {
				xs[i] = math.Copysign(0, -1)
			}
		}
		for _, window := range []int{1, 3, 5, 9, 11, 41, 83} {
			got, err := MovingAverage(xs, window)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				lo, hi := max(i-window/2, 0), min(i+window/2, n-1)
				var sum float64
				for j := lo; j <= hi; j++ {
					sum += xs[j]
				}
				want := sum / float64(hi-lo+1)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("n %d window %d: out[%d] = %v, want %v", n, window, i, got[i], want)
				}
			}
		}
	}
}

// TestMovingAverageIntoMatchesMovingAverage mirrors the Unwrap test for the
// smoothing filter (no aliasing allowed — the filter reads neighbours).
func TestMovingAverageIntoMatchesMovingAverage(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = math.Sin(0.1 * float64(i))
	}
	want, err := MovingAverage(xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, len(xs))
	got, err := MovingAverageInto(buf, xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Error("MovingAverageInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MovingAverageInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := MovingAverageInto(buf, xs, 4); !errors.Is(err, ErrBadWindow) {
		t.Errorf("even window error = %v, want ErrBadWindow", err)
	}
}
