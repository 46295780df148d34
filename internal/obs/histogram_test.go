package obs

import (
	"math"
	"testing"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1<<46 + 5, maxFinite},
		{1<<47 - 1, maxFinite},
		{1 << 47, overflowBucket},
		{math.MaxInt64, overflowBucket},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBoundContainsBucketValues(t *testing.T) {
	// Every finite bucket's values must be <= its bound and > the
	// previous bound — the invariant the cumulative exposition relies on.
	for i := 1; i <= maxFinite; i++ {
		lo, hi := int64(1)<<uint(i-1), int64(1)<<uint(i)-1
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d: lo/hi %d/%d map to %d/%d", i, lo, hi, bucketIndex(lo), bucketIndex(hi))
		}
		if hi != BucketBound(i) {
			t.Fatalf("bucket %d: bound %d != hi %d", i, BucketBound(i), hi)
		}
		if lo <= BucketBound(i-1) {
			t.Fatalf("bucket %d: lo %d not above previous bound %d", i, lo, BucketBound(i-1))
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	vals := []int64{-3, 0, 1, 1, 2, 3, 100, 1 << 50}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if got := s.Count(); got != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", got, len(vals))
	}
	if s.Sum != sum {
		t.Fatalf("Sum = %d, want %d", s.Sum, sum)
	}
	want := map[int]uint64{
		0:                2, // -3, 0
		1:                2, // 1, 1
		2:                2, // 2, 3
		bucketIndex(100): 1,
		overflowBucket:   1,
	}
	for b, n := range want {
		if s.Counts[b] != n {
			t.Errorf("bucket %d: count %d, want %d", b, s.Counts[b], n)
		}
	}
}

func TestQuantileEstInterpolates(t *testing.T) {
	// Fill one bucket uniformly: 1024..2047 (bucket 11). The estimated
	// median should land near the bucket's middle, not at its bound.
	var h Histogram
	for v := int64(1024); v < 2048; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.QuantileEst(0.5); math.Abs(got-1536) > 8 {
		t.Errorf("QuantileEst(0.5) = %v, want ~1536", got)
	}
	if got := s.QuantileEst(0); got < 1024 || got > 1028 {
		t.Errorf("QuantileEst(0) = %v, want bucket floor ~1024", got)
	}
	if got := s.QuantileEst(1); math.Abs(got-2048) > 1e-9 {
		t.Errorf("QuantileEst(1) = %v, want 2048", got)
	}
}

func TestQuantileEstMonotoneAndBounded(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 3, 3, 7, 100, 5000, 5000, 5000, 1 << 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := s.QuantileEst(q)
		if got < prev {
			t.Fatalf("QuantileEst not monotone: q=%v gave %v after %v", q, got, prev)
		}
		prev = got
	}
	// The estimate must stay within the largest observation's bucket.
	if est, ub := s.QuantileEst(1), BucketBound(bucketIndex(1<<20)); est > float64(ub)+1 {
		t.Errorf("QuantileEst(1) = %v above bucket bound %d", est, ub)
	}
}

func TestQuantileEstEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.QuantileEst(0.99); got != 0 {
		t.Errorf("empty QuantileEst = %v, want 0", got)
	}
	var h Histogram
	h.Observe(-5)
	h.Observe(0)
	if got := h.Snapshot().QuantileEst(0.9); got != 0 {
		t.Errorf("non-positive-only QuantileEst = %v, want 0", got)
	}
	var ho Histogram
	ho.Observe(1 << 50) // overflow bucket
	if got := ho.Snapshot().QuantileEst(0.5); got != float64(int64(1)<<maxFinite) {
		t.Errorf("overflow QuantileEst = %v, want %v", got, float64(int64(1)<<maxFinite))
	}
}
