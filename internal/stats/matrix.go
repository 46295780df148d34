package stats

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a matrix inverse does not exist.
var ErrSingular = errors.New("stats: singular matrix")

// Matrix is a small dense row-major matrix. It is sized for the state
// dimensions used in Kalman filtering (typically 2x2 or 4x4) and favors
// clarity over asymptotic performance.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom returns a rows x cols matrix initialized from vals in
// row-major order. It panics if len(vals) != rows*cols, which indicates
// a programming error at the call site.
func MatrixFrom(rows, cols int, vals ...float64) *Matrix {
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("stats: MatrixFrom %dx%d needs %d values, got %d",
			rows, cols, rows*cols, len(vals)))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, vals)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns the matrix product m * n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("stats: Mul shape mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.Data[i*out.Cols+j] += a * n.At(k, j)
			}
		}
	}
	return out
}

// CopyFrom overwrites m's elements with n's. Shapes must match.
func (m *Matrix) CopyFrom(n *Matrix) {
	mustSameShape(m, n)
	copy(m.Data, n.Data)
}

// AddInto stores a + b into out (which may alias a or b) and returns
// out. All three must share a shape.
func AddInto(out, a, b *Matrix) *Matrix {
	mustSameShape(a, b)
	mustSameShape(out, a)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// SubInto stores a - b into out (which may alias a or b) and returns
// out. All three must share a shape.
func SubInto(out, a, b *Matrix) *Matrix {
	mustSameShape(a, b)
	mustSameShape(out, a)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// MulInto stores the product a * b into out and returns out. out must
// not alias a or b and must be shaped a.Rows x b.Cols. The
// accumulation order matches Mul exactly, so results are bit-identical
// to the allocating variant.
func MulInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("stats: MulInto shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("stats: MulInto out is %dx%d, want %dx%d",
			out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += v * b.At(k, j)
			}
		}
	}
	return out
}

// TransposeInto stores the transpose of m into out (which must not
// alias m) and returns out.
func TransposeInto(out, m *Matrix) *Matrix {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic(fmt.Sprintf("stats: TransposeInto out is %dx%d, want %dx%d",
			out.Rows, out.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// IdentityInto overwrites the square matrix m with the identity.
func IdentityInto(m *Matrix) *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ScaleBy returns m with every element multiplied by s.
func (m *Matrix) ScaleBy(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] * s
	}
	return out
}

// Transpose returns m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("stats: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(a.At(r, col)) > abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if abs(a.At(pivot, col)) < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		pv := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/pv)
			inv.Set(col, j, inv.At(col, j)/pv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// InverseInto computes the inverse of the square matrix m into out,
// using scratch as elimination workspace. out, m, and scratch must be
// three distinct matrices of the same square shape. The elimination
// is identical to Inverse, so results are bit-identical.
func InverseInto(out, m, scratch *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("stats: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := scratch
	a.CopyFrom(m)
	inv := IdentityInto(out)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(a.At(r, col)) > abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if abs(a.At(pivot, col)) < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		pv := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/pv)
			inv.Set(col, j, inv.At(col, j)/pv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return nil
}

func swapRows(m *Matrix, a, b int) {
	for j := 0; j < m.Cols; j++ {
		m.Data[a*m.Cols+j], m.Data[b*m.Cols+j] = m.Data[b*m.Cols+j], m.Data[a*m.Cols+j]
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func mustSameShape(m, n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("stats: shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, n.Rows, n.Cols))
	}
}
