//go:build !amd64

package mat

// There are no vector kernels off amd64: expInto loops over math.Exp and
// Reweight takes its generic pass 2.

func haveExpKernel() bool { return false }

func haveReweightKernel() bool { return false }

func expKernel(dst, src []float64) int { return 0 }

func reweightKernel2(gram, rhs, w, res, a, b []float64, mean, std, floor float64) (done, hits int) {
	return 0, 0
}
