package stats

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a matrix inverse does not exist.
var ErrSingular = errors.New("stats: singular matrix")

// Matrix is a small dense row-major matrix. It is sized for the normal
// equations of the least-squares fits that use it (a handful of rows
// and columns) and favors clarity over asymptotic performance.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
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
