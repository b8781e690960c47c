package mat

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"testing"
)

// expCases are the inputs the exp table test runs, at every length from 0
// to 9 and every offset: the kernel's range edges, results that underflow
// to subnormals or zero (−708 down to −745.2), overflow above 709.78, and
// the non-finite, signed-zero and subnormal bit patterns.
var expCases = []float64{
	0, math.Copysign(0, -1), 1, -1, -0.1875, -1.6875, -2.375, -3.0625,
	-0.5, -12.5, -127.99, 3.5, 100.25, -300.125, 500.5,
	707.9999999999999, -707.9999999999999, 708, -708,
	math.Nextafter(708, 0), math.Nextafter(-708, 0),
	-708.1, -709, -720.5, -744.4, -745.1332191019411, -745.2, -746, -1e300,
	709.78, 709.782712893384, 709.79, 710, 1e10, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with a payload
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),  // largest subnormal
	-math.Float64frombits(0x0010000000000000), // smallest normal, negated
}

// expImpls runs f once per expInto implementation this host can run: the
// math.Exp loop, and the vector kernel where the CPU has it and math.Exp
// takes the FMA path the kernel reproduces.
func expImpls(t *testing.T, f func(t *testing.T)) {
	saved := useExpKernel
	defer func() { useExpKernel = saved }()
	useExpKernel = false
	t.Run("scalar", f)
	if haveExpKernel() && expKernelMatches() {
		useExpKernel = true
		t.Run("kernel", f)
	}
}

// checkExpInto runs expInto over src, into a separate dst and in place,
// and fails on any result whose bits differ from math.Exp's.
func checkExpInto(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = -7 // expInto must not write past len(src)
	inPlace := append([]float64(nil), src...)
	expInto(dst, src)
	expInto(inPlace, inPlace)
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("exp(%v [%#x]) = %#x, want %#x", x, math.Float64bits(x), got, want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("in place: exp(%v [%#x]) = %#x, want %#x", x, math.Float64bits(x), got, want)
		}
	}
	if dst[len(src)] != -7 {
		t.Fatalf("expInto wrote past the %d values of src", len(src))
	}
}

func TestExpIntoMatchesMathExp(t *testing.T) {
	expImpls(t, func(t *testing.T) {
		for n := 0; n <= 9; n++ {
			for off := 0; off+n <= len(expCases); off++ {
				checkExpInto(t, expCases[off:off+n])
			}
		}
		// Long in-range runs exercise the kernel's block loop.
		src := make([]float64, 1027)
		for i := range src {
			src[i] = -float64(i) * 0.6889 // down to −707
		}
		checkExpInto(t, src)
	})
}

// TestExpKernelChosen pins the dispatch on this host: where the CPU has
// the kernels and GODEBUG leaves their instructions on (so math.Exp takes
// its FMA path), the probe passes, expInto uses its kernel and Reweight
// uses reweightKernel2.
func TestExpKernelChosen(t *testing.T) {
	if want := os.Getenv("MAT_EXP_WANT"); want != "" {
		// A child started by TestExpDispatchHonoursGODEBUG.
		if useExpKernel != (want == "kernel") || useReweightKernel != (want == "kernel") {
			t.Fatalf("useExpKernel = %v, useReweightKernel = %v under GODEBUG=%q, want %s",
				useExpKernel, useReweightKernel, os.Getenv("GODEBUG"), want)
		}
		if want == "scalar" && Kernels() != "generic" {
			t.Fatalf("Kernels() = %q with both kernels off", Kernels())
		}
		if probe := os.Getenv("MAT_EXP_PROBE"); probe != "" && haveExpKernel() {
			if got := expKernelMatches(); got != (probe == "pass") {
				t.Fatalf("probe matches = %v under GODEBUG=%q, want %s", got, os.Getenv("GODEBUG"), probe)
			}
		}
		checkExpInto(t, expCases)
		return
	}
	if haveExpKernel() && !avx2Off(os.Getenv("GODEBUG")) && !useExpKernel {
		t.Fatal("the CPU supports the kernel but the init probe rejected it")
	}
	if haveReweightKernel() && useExpKernel && !useReweightKernel {
		t.Fatal("the CPU supports reweightKernel2 but it was not chosen")
	}
}

// TestExpDispatchHonoursGODEBUG re-runs the test binary with GODEBUG
// settings that take math.Exp off its FMA path (cpu.fma=off, cpu.avx=off)
// or turn off the kernel's instructions (cpu.avx2=off): expInto must fall
// back to the math.Exp loop, Reweight to its generic pass 2, and expInto's
// results must still equal math.Exp.
// Where math.Exp leaves its FMA path, the probe alone must reject the
// kernel.
func TestExpDispatchHonoursGODEBUG(t *testing.T) {
	if os.Getenv("MAT_EXP_WANT") != "" {
		t.Skip("running as a child")
	}
	if testing.Short() {
		t.Skip("starts child processes")
	}
	for _, tc := range []struct{ godebug, probe string }{
		{"cpu.fma=off", "fail"},
		{"cpu.avx=off", "fail"},
		{"cpu.avx2=off", "pass"},
		{"cpu.all=off", "fail"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpKernelChosen$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+tc.godebug, "MAT_EXP_WANT=scalar", "MAT_EXP_PROBE="+tc.probe)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", tc.godebug, err, out)
		}
	}
}

func TestAVX2Off(t *testing.T) {
	for _, tc := range []struct {
		godebug string
		want    bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"gctrace=1,cpu.avx2=off", true},
		{"cpu.all=off", true},
		{"cpu.all=off,cpu.avx2=on", false},
		{"cpu.avx2=off,cpu.avx2=on", false},
		{"cpu.fma=off,cpu.avx=off", false}, // left to the probe
		{"cpu.avx2=maybe", false},
		{"avx2=off", false},
	} {
		if got := avx2Off(tc.godebug); got != tc.want {
			t.Errorf("avx2Off(%q) = %v, want %v", tc.godebug, got, tc.want)
		}
	}
}

// FuzzExpInto checks expInto against math.Exp bit for bit on arbitrary
// float64 bit patterns (raw) or on values spread over (−750, 750)
// (scaled), in a separate dst and in place, on every implementation.
func FuzzExpInto(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(expCases...), false)
	f.Add(seed(-1, -2, -3, -4, -5, -6, -7, -8, -709), false)
	f.Add([]byte("the weights of one window of pair rows"), true)
	f.Fuzz(func(t *testing.T, raw []byte, scaled bool) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			u := binary.LittleEndian.Uint64(raw[8*i:])
			if scaled {
				src[i] = float64(int64(u)) / (1 << 63) * 750
			} else {
				src[i] = math.Float64frombits(u)
			}
		}
		expImpls(t, func(t *testing.T) { checkExpInto(t, src) })
	})
}

// BenchmarkExpInto times 256 weights of a window solve, −d²/2 for d spread
// over ±4σ, on each implementation.
func BenchmarkExpInto(b *testing.B) {
	src := make([]float64, 256)
	for i := range src {
		d := float64(i-128) / 32
		src[i] = -d * d / 2
	}
	dst := make([]float64, len(src))
	saved := useExpKernel
	defer func() { useExpKernel = saved }()
	b.Run("scalar", func(b *testing.B) {
		useExpKernel = false
		for b.Loop() {
			expInto(dst, src)
		}
	})
	if saved {
		b.Run("kernel", func(b *testing.B) {
			useExpKernel = true
			for b.Loop() {
				expInto(dst, src)
			}
		})
	}
}
