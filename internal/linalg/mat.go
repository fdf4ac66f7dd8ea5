// Package linalg provides the dense linear-algebra substrate used by the
// whole library: a row-major matrix type, general matrix multiplication
// with four algorithmic variants (NN, NT, TN, TT), a symmetric
// eigensolver, Cholesky and LU factorisations, and a global FLOP counter
// mirroring the paper's runtime FLOP accounting (2·m·n·k per GEMM call).
//
// The paper executes its bottlenecks as sequences of vendor DGEMMs on
// MI250X/A100 GPUs; here the same call graph runs on pure-Go kernels.
// The four GEMM variants use genuinely different loop orders and blocking
// so that their relative performance differs by shape, which is what the
// runtime auto-tuner (package autotune) exploits, exactly as the paper's
// Table IV motivates.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMat returns a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatFrom returns an r×c matrix backed by a copy of data (row-major).
func NewMatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	m := NewMat(r, c)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowSpan returns the zero-copy view of rows [lo, hi) of m.
func (m *Mat) RowSpan(lo, hi int) *Mat {
	return &Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Vec returns the zero-copy (Rows·Cols)×1 column-vector view of m, the
// operand shape of a matrix–vector product over a flattened index pair.
func (m *Mat) Vec() *Mat {
	return &Mat{Rows: m.Rows * m.Cols, Cols: 1, Data: m.Data}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies the contents of src into m; dimensions must match.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns a newly allocated transpose of m.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s and returns m.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AxpyMat computes m += s*x element-wise; dimensions must match.
func (m *Mat) AxpyMat(s float64, x *Mat) *Mat {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic("linalg: AxpyMat dimension mismatch")
	}
	for i, v := range x.Data {
		m.Data[i] += s * v
	}
	return m
}

// Sym symmetrises m in place: m = (m + mᵀ)/2. m must be square.
func (m *Mat) Sym() *Mat {
	if m.Rows != m.Cols {
		panic("linalg: Sym requires a square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
	return m
}

// Trace returns the trace of a square matrix.
func (m *Mat) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace requires a square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// MaxAbs returns the largest absolute element of m (0 for empty).
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the element-wise inner product tr(aᵀb).
func Dot(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// MulVec computes y = m·x for a vector x of length m.Cols.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// String renders small matrices for debugging.
func (m *Mat) String() string {
	s := fmt.Sprintf("Mat %dx%d\n", m.Rows, m.Cols)
	if m.Rows*m.Cols > 400 {
		return s + "  (too large to print)"
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf(" % .8f", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
