// Package mat implements the small dense linear algebra kernel that LION
// needs: matrices, Cholesky and Householder-QR factorizations, ordinary /
// weighted least squares on a reusable Workspace, and normal equations
// under row updates (NormalEq).
//
// Go has no standard linear algebra library, and this reproduction is
// stdlib-only, so the weighted-least-squares machinery of the paper
// (Eqs. 13–16) is implemented by hand here. The matrices involved are tall
// and skinny (thousands of rows, 3–4 columns), so plain dense algorithms in
// row-major storage are more than fast enough.
package mat
