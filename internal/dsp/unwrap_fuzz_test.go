package dsp

import (
	"math"
	"testing"
	"time"
)

// unwrapStepRef is the reference reduction of one consecutive-sample jump:
// whole 2π steps until the jump falls below π. It terminates only for jumps
// under a few π, the range every wrapped input stays in.
func unwrapStepRef(prev, cur float64) float64 {
	d, offset := cur-prev, 0.0
	for d >= math.Pi {
		offset -= 2 * math.Pi
		d -= 2 * math.Pi
	}
	for d <= -math.Pi {
		offset += 2 * math.Pi
		d += 2 * math.Pi
	}
	return cur + offset
}

// TestUnwrapHugeJumpTerminates: finite phases far outside [0, 2π) used to
// spin forever (1e300 − 2π == 1e300); every such input must now return.
func TestUnwrapHugeJumpTerminates(t *testing.T) {
	inputs := [][]float64{
		{0, 1e300},
		{0, -1e300},
		{1e300, -1e300, 1e300},
		{0, math.MaxFloat64},
		{-math.MaxFloat64, math.MaxFloat64},
		{0, math.Inf(1), 0},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, in := range inputs {
			Unwrap(in)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Unwrap did not return on huge phase jumps")
	}
}

// FuzzUnwrap checks that Unwrap returns on any pair of float64 phases and,
// for moderate finite input, keeps the re-wrap invariant: the unwrapped jump
// is at most π and the unwrapped sample is the input plus whole turns. A jump
// under 3π, which covers every wrapped input, must reduce bit-identically to
// the whole-step reference.
func FuzzUnwrap(f *testing.F) {
	for _, seed := range [][2]float64{
		{0, 1e300}, {0, -1e300}, {1e300, -1e300},
		{0, math.MaxFloat64}, {-math.MaxFloat64, math.MaxFloat64},
		{0, math.Pi}, {0, -math.Pi}, {math.Pi, -math.Pi},
		{0.1, 6.2}, {6.2, 0.1}, {0, 3 * math.Pi}, {0, -3 * math.Pi},
		{0.5, 0.25 + 600*math.Pi},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		out := Unwrap([]float64{a, b})
		if math.Float64bits(out[0]) != math.Float64bits(a) {
			t.Fatalf("Unwrap(%v, %v)[0] = %v, want the first input", a, b, out[0])
		}
		const bound, tol = 1e6, 1e-6
		if !(math.Abs(a) <= bound && math.Abs(b) <= bound) {
			return // termination is all that is asserted
		}
		if d := out[1] - out[0]; math.Abs(d) > math.Pi+tol {
			t.Fatalf("Unwrap(%v, %v) = %v: jump %v exceeds π", a, b, out, d)
		}
		if r := math.Remainder(out[1]-b, 2*math.Pi); math.Abs(r) > tol {
			t.Fatalf("Unwrap(%v, %v) = %v: %v is not the input plus whole turns", a, b, out, out[1])
		}
		if math.Abs(b-a) < 3*math.Pi {
			if want := unwrapStepRef(a, b); math.Float64bits(out[1]) != math.Float64bits(want) {
				t.Fatalf("Unwrap(%v, %v)[1] = %v, reference %v", a, b, out[1], want)
			}
		}
	})
}
