//go:build !amd64

package mat

// There is no vector exp kernel off amd64: expInto loops over math.Exp.

func haveExpKernel() bool { return false }

func expKernel(dst, src []float64) int { return 0 }
