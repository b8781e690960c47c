package mat

import (
	"math"
	"os"
	"strings"
)

// expProbe holds arguments on which the FMA and non-FMA polynomials of
// math.Exp's amd64 assembly round differently. The kernel always runs the
// FMA polynomial, so it reproduces math.Exp on these only when math.Exp
// itself takes its FMA path — which GODEBUG=cpu.fma=off or cpu.avx=off
// turns off.
var expProbe = [4]float64{-0.1875, -1.6875, -2.375, -3.0625}

// useExpKernel selects expInto's implementation once, at init: the vector
// kernel where the CPU has it, GODEBUG leaves AVX2 on, and it reproduces
// math.Exp on expProbe; math.Exp in a loop everywhere else.
var useExpKernel = haveExpKernel() && !avx2Off(os.Getenv("GODEBUG")) && expKernelMatches()

// useReweightKernel selects Workspace.Reweight's pass 2 for 2-column
// systems once, at init: reweightKernel2 where the CPU has its
// instructions and the exp kernel it embeds was chosen (so its weights
// equal math.Exp's), the generic pass everywhere else.
var useReweightKernel = useExpKernel && haveReweightKernel()

// Kernels names the numeric kernels this process runs, as chosen at
// init: "avx2" where Workspace.Reweight's 2-column pass and expInto run
// their AVX2 assembly, "avx2-exp" where only expInto does, and "generic"
// where both run portable Go. Every choice computes the same bits; the
// name is recorded with benchmark snapshots, which compare like with like.
func Kernels() string {
	switch {
	case useReweightKernel:
		return "avx2"
	case useExpKernel:
		return "avx2-exp"
	}
	return "generic"
}

// expKernelMatches reports whether expKernel equals math.Exp bit for bit
// on every expProbe value.
func expKernelMatches() bool {
	var got [len(expProbe)]float64
	if expKernel(got[:], expProbe[:]) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expInto sets dst[i] = math.Exp(src[i]) for every i, bit for bit. dst
// must be at least as long as src and may alias it. Where useExpKernel is
// set, whole blocks of 4 values in (−708, 708) go through the vector
// kernel; a block holding any other value (NaN, ±Inf, or a magnitude of
// 708 or more, whose result nears overflow or underflow) and a tail of
// fewer than 4 values are computed by math.Exp.
func expInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		if useExpKernel {
			i += expKernel(dst[i:], src[i:])
		}
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
}

// avx2Off reports whether the GODEBUG value turns AVX2 off, reading its
// cpu.avx2 and cpu.all fields as the runtime does: the last one wins. The
// probe already rejects the kernel under cpu.fma=off and cpu.avx=off,
// which move math.Exp off its FMA path; cpu.avx2=off leaves math.Exp as it
// is, so only this check keeps the kernel's AVX2 instructions off then.
func avx2Off(godebug string) bool {
	off := false
	for _, field := range strings.Split(godebug, ",") {
		switch field {
		case "cpu.avx2=off", "cpu.all=off":
			off = true
		case "cpu.avx2=on", "cpu.all=on":
			off = false
		}
	}
	return off
}
