//go:build amd64

package mat

// expKernel writes exp(src[i]) to dst[i] in blocks of 4, bit-identical to
// math.Exp on its FMA path, and returns how many values it wrote: a
// multiple of 4 that stops before the tail and before the first block
// holding a value outside (−708, 708) or a NaN. len(dst) must be at least
// len(src); dst may alias src. Implemented in exp_amd64.s; callable only
// where haveExpKernel reports true.
//
//go:noescape
func expKernel(dst, src []float64) int

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
