package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "mean")
	almost(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	almost(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "stddev")
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/short inputs should yield 0")
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		almost(t, sortQuantile(xs, tc.q), tc.want, 1e-12, "quantile")
	}
	med, err := Median([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, med, 2.5, 1e-12, "even median")
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestMADGaussianConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	mad, err := MAD(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled MAD should estimate sigma = 3 for Gaussian data.
	almost(t, mad, 3, 0.15, "MAD sigma estimate")
}

func TestMADRobustToOutliers(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 1.05, 0.95, 1000}
	mad, err := MAD(xs)
	if err != nil {
		t.Fatal(err)
	}
	if mad > 1 {
		t.Fatalf("MAD %v not robust to outlier", mad)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	almost(t, Correlation(xs, ys), 1, 1e-12, "perfect correlation")
	neg := []float64{8, 6, 4, 2}
	almost(t, Correlation(xs, neg), -1, 1e-12, "perfect anticorrelation")
	if Correlation(xs, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant series correlation should be 0")
	}
}

func TestNormalPDFandCDF(t *testing.T) {
	almost(t, NormalCDF(0, 0, 1), 0.5, 1e-12, "cdf median")
	almost(t, NormalCDF(1.96, 0, 1), 0.975, 1e-3, "cdf 97.5")
	if NormalCDF(-1, 0, 0) != 0 || NormalCDF(1, 0, 0) != 1 {
		t.Fatal("zero sigma cdf should be a step")
	}
}

// matrixOf builds a rows x cols matrix from vals in row-major order.
func matrixOf(rows, cols int, vals ...float64) *Matrix {
	m := NewMatrix(rows, cols)
	copy(m.Data, vals)
	return m
}

func TestMatrixMulIdentity(t *testing.T) {
	m := matrixOf(2, 2, 1, 2, 3, 4)
	id := Identity(2)
	got := m.Mul(id)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("M*I != M: %v", got.Data)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	m := matrixOf(2, 2, 4, 7, 2, 6)
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			almost(t, prod.At(i, j), want, 1e-9, "M*M^-1")
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := matrixOf(2, 2, 1, 2, 2, 4)
	if _, err := m.Inverse(); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	rect := NewMatrix(2, 3)
	if _, err := rect.Inverse(); err == nil {
		t.Fatal("non-square inverse should error")
	}
}

func TestMatrixInverseRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + trial%3
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		// Make diagonally dominant so it is well-conditioned.
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n)*3)
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				almost(t, prod.At(i, j), want, 1e-8, "random inverse")
			}
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := matrixOf(2, 3, 1, 2, 3, 4, 5, 6)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1, q2, q3 := sortQuantile(xs, 0.25), sortQuantile(xs, 0.5), sortQuantile(xs, 0.75)
		return q1 <= q2 && q2 <= q3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
