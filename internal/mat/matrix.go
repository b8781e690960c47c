package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Errors shared by the solvers in this package.
var (
	// ErrShape is returned when matrix dimensions are incompatible with the
	// requested operation.
	ErrShape = errors.New("mat: incompatible matrix shapes")
	// ErrSingular is returned when a factorization or solve encounters a
	// (numerically) singular matrix.
	ErrSingular = errors.New("mat: matrix is singular or ill-conditioned")
	// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
	// positive definite.
	ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")
)

// Dense is a row-major dense matrix of float64 values.
//
// Ownership rules: every method that returns a slice (TMulVec) or a matrix
// (Clone, Gram) returns freshly allocated storage that never aliases the
// receiver's internal buffer — callers may mutate results freely. The
// zero-allocation solvers live on Workspace and NormalEq, whose returned
// slices DO alias internal scratch; see their doc comments for the validity
// window.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialised rows×cols matrix. It panics if either
// dimension is not positive — a programming error, not a runtime condition.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Reshape resizes m in place to rows×cols, reusing the backing array when it
// has capacity and allocating a larger one otherwise. All entries are reset
// to zero. The zero value of Dense reshapes into a valid matrix, which is
// what lets Workspace scratch matrices grow on demand and then stay
// allocation-free in steady state. It panics on non-positive dimensions,
// like NewDense.
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = rows, cols
	return m
}

// Gram returns the Gram matrix mᵀ·m (cols×cols), computed directly without
// materialising the transpose.
func (m *Dense) Gram() *Dense {
	out := NewDense(m.cols, m.cols)
	m.gramInto(out)
	return out
}

// gramInto accumulates mᵀ·m into out, which must be cols×cols and zeroed.
// The row-by-row accumulation order is the contract shared with
// NormalEq.AddRow so that a freshly accumulated Gram matrix is bit-identical
// to an incrementally built one over the same row sequence.
func (m *Dense) gramInto(out *Dense) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a, ra := range row {
			if ra == 0 {
				continue
			}
			oa := out.data[a*m.cols : (a+1)*m.cols]
			for b, rb := range row {
				oa[b] += ra * rb
			}
		}
	}
}

// weightedGramInto accumulates mᵀ·diag(w)·m into out (cols×cols, zeroed).
func (m *Dense) weightedGramInto(out *Dense, w []float64) {
	for i := 0; i < m.rows; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a, ra := range row {
			if ra == 0 {
				continue
			}
			oa := out.data[a*m.cols : (a+1)*m.cols]
			s := wi * ra
			for b, rb := range row {
				oa[b] += s * rb
			}
		}
	}
}

// TMulVec returns mᵀ·v without materialising the transpose.
func (m *Dense) TMulVec(v []float64) ([]float64, error) {
	if m.rows != len(v) {
		return nil, ErrShape
	}
	out := make([]float64, m.cols)
	m.tMulVecInto(out, v)
	return out, nil
}

// tMulVecInto accumulates mᵀ·v into out (len m.cols, zeroed by the caller).
func (m *Dense) tMulVecInto(out, v []float64) {
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, r := range row {
			out[j] += r * vi
		}
	}
}

// weightedTMulVecInto accumulates mᵀ·diag(w)·v into out (len m.cols, zeroed
// by the caller).
func (m *Dense) weightedTMulVecInto(out, w, v []float64) {
	for i := 0; i < m.rows; i++ {
		wv := w[i] * v[i]
		if wv == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, r := range row {
			out[j] += r * wv
		}
	}
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
