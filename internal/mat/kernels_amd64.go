//go:build amd64

package mat

// expKernel writes exp(src[i]) to dst[i] in blocks of 4, bit-identical to
// math.Exp on its FMA path, and returns how many values it wrote: a
// multiple of 4 that stops before the tail and before the first block
// holding a value outside (−708, 708) or a NaN. len(dst) must be at least
// len(src); dst may alias src. Implemented in kernels_amd64.s; callable
// only where haveExpKernel reports true.
//
//go:noescape
func expKernel(dst, src []float64) int

// reweightKernel2 runs pass 2 of Workspace.Reweight for a 2-column system
// over whole blocks of 4 rows: the Eq. 15 weights w[i] = exp(−d²/2) with
// d = (res[i] − mean)/std, the count of them below floor, and their
// weighted products added into the lower triangle of the 2×2 gram and
// into rhs, each sum in row order, exactly as reweightSums adds them. It
// stops before the tail and before the first block in which a weight
// argument is outside the exp kernel's range or NaN, or a coefficient a0,
// a1 or a product w·b is zero or NaN — every case in which reweightSums
// would skip a term or fail — and returns the rows it took (a multiple of
// 4) and the floor hits among them. It adds nothing of the rows it does
// not take, but may have written their weights, with the bits weightsInto
// gives them. a holds 2 entries per row of w; res and b at least one.
// Implemented in kernels_amd64.s; callable only where haveReweightKernel
// reports true.
//
//go:noescape
func reweightKernel2(gram, rhs, w, res, a, b []float64, mean, std, floor float64) (done, hits int)

// cpuid and xgetbv execute the instructions of the same names (XGETBV
// with ECX = 0, which reads XCR0).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveExpKernel reports whether the CPU and OS support expKernel's
// instructions: AVX, AVX2 and FMA, with the YMM state enabled in XCR0.
func haveExpKernel() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// haveReweightKernel reports whether the CPU and OS support
// reweightKernel2's instructions: expKernel's, plus POPCNT.
func haveReweightKernel() bool {
	const popcnt = 1 << 23
	_, _, ecx1, _ := cpuid(1, 0)
	return haveExpKernel() && ecx1&popcnt != 0
}
