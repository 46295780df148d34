// Package stats provides the statistical building blocks shared by the
// sidq quality-management and exploitation packages: descriptive
// statistics, robust estimators, the Gaussian CDF, and a tiny
// dense-matrix type for small least-squares systems.
//
// Everything in this package is deterministic given the caller's
// *rand.Rand; no package-level randomness is used.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// quantileSorted returns the q-quantile (0 <= q <= 1) of sorted by
// linear interpolation between order statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return lerp(sorted[lo], sorted[hi], pos-float64(lo))
}

// lerp is quantileSorted's interpolation between two order statistics,
// one expression that the sorting and the selecting median both call.
func lerp(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// Median returns the median of xs: MedianInPlace on a copy.
func Median(xs []float64) (float64, error) {
	return MedianInPlace(append([]float64(nil), xs...))
}

// smallMedian is the largest input MedianInPlace orders by insertion;
// above it, quickselect finds the two middle order statistics.
const smallMedian = 12

// MedianInPlace returns the median of xs, reordering xs itself instead
// of a copy — the allocation-free variant for hot loops that own a
// scratch buffer. The result is quantileSorted(sorted, 0.5) bit for
// bit. When xs holds no NaN and no -0, equal values have equal bits,
// so the middle order statistics of any correct selection are the
// sorted ones: up to smallMedian values are ordered by insertion,
// more are partitioned until the lower middle is in place, and the
// upper middle is the least value above it. A NaN or a -0 makes where
// a value lands depend on the sort itself (NaNs first, ±0 in whatever
// order pdqsort leaves them), so that input is sorted as before.
func MedianInPlace(xs []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrEmpty
	}
	for _, x := range xs {
		if x != x || math.Float64bits(x) == 1<<63 {
			sort.Float64s(xs)
			return quantileSorted(xs, 0.5), nil
		}
	}
	if n <= smallMedian {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return quantileSorted(xs, 0.5), nil
	}
	k := (n - 1) / 2
	selectNth(xs, k)
	if n%2 == 1 {
		return xs[k], nil
	}
	return lerp(xs[k], slices.Min(xs[k+1:]), 0.5), nil
}

// selectNth reorders xs, which holds no NaN, so that xs[k] is the value
// sorting would put there, with no greater value before it and no
// lesser one after. Each round three-way partitions the window holding
// k around a median-of-three pivot, so runs of ties cost one pass. A
// window still open after 2·log2(n) rounds — input built against the
// pivot rule — is sorted instead, which keeps the worst case at a
// sort's.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); lo < hi; rounds-- {
		if rounds == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		// xs[lo:lt] < pivot, xs[lt:gt+1] == pivot, xs[gt+1:hi+1] > pivot.
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

// MAD returns the median absolute deviation of xs, scaled by 1.4826 so
// that it estimates the standard deviation for Gaussian data. It copies
// xs once and takes both medians in that copy.
func MAD(xs []float64) (float64, error) {
	dev := append([]float64(nil), xs...)
	med, err := MedianInPlace(dev)
	if err != nil {
		return 0, err
	}
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	m, _ := MedianInPlace(dev)
	return 1.4826 * m, nil
}

// Covariance returns the unbiased sample covariance of xs and ys, which
// must have equal length (0 if len < 2).
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation of xs and ys, or 0 when
// either series is constant.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// NormalCDF returns the cumulative distribution of N(mu, sigma^2) at x.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}
