package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortQuantile is the q-quantile of a sorted copy of xs.
func sortQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// sortMedian is the median as it was before the selection kernel: sort
// a copy, read the middle with quantileSorted. The kernel must return
// its bits.
func sortMedian(xs []float64) float64 { return sortQuantile(xs, 0.5) }

// sortMAD is MAD as it was: two sorting medians over two copies.
func sortMAD(xs []float64) float64 {
	med := sortMedian(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return 1.4826 * sortMedian(dev)
}

// checkMedians compares MedianInPlace, Median and MAD with the sorting
// references bit for bit, and checks that Median and MAD leave their
// input alone and that MedianInPlace only permutes its own.
func checkMedians(t *testing.T, name string, xs []float64) {
	t.Helper()
	if len(xs) == 0 {
		return
	}
	orig := append([]float64(nil), xs...)
	want, wantMAD := sortMedian(xs), sortMAD(xs)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got, err := Median(xs); err != nil || !same(got, want) {
		t.Fatalf("%s: Median = %v (%#x), %v; sort gives %v (%#x)", name, got, math.Float64bits(got), err, want, math.Float64bits(want))
	}
	if got, err := MAD(xs); err != nil || !same(got, wantMAD) {
		t.Fatalf("%s: MAD = %v (%#x), %v; sort gives %v (%#x)", name, got, math.Float64bits(got), err, wantMAD, math.Float64bits(wantMAD))
	}
	for i := range xs {
		if !same(xs[i], orig[i]) {
			t.Fatalf("%s: Median or MAD changed its input at %d", name, i)
		}
	}
	got, err := MedianInPlace(xs)
	if err != nil || !same(got, want) {
		t.Fatalf("%s: MedianInPlace = %v (%#x), %v; sort gives %v (%#x)", name, got, math.Float64bits(got), err, want, math.Float64bits(want))
	}
	a, b := bitsSorted(xs), bitsSorted(orig)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: MedianInPlace did not permute its input", name)
		}
	}
	copy(xs, orig)
}

func bitsSorted(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMedianMatchesSort pins the selection kernel to sort+quantileSorted
// on the inputs where a selection can go wrong: NaN at every position,
// ±0 mixed, ±Inf, ties, all-equal, sorted and reversed runs, every
// length across the insertion/quickselect boundary, and a long input.
func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	negZero := math.Copysign(0, -1)
	alphabet := []float64{math.Inf(-1), -2, -1, negZero, 0, 0.5, 1, 2, 1e308, math.Inf(1)}
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 10
			}
			return xs
		},
		"ties": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		},
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7.25
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) * 0.1
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n-i) * 0.1
			}
			return xs
		},
		"hostile": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return xs
		},
		"signed-zeros": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if rng.Intn(2) == 0 {
					xs[i] = negZero
				}
			}
			return xs
		},
		"infinities": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			}
			return xs
		},
	}
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 31, 64, 10000}
	for name, shape := range shapes {
		for _, n := range lengths {
			for trial := 0; trial < 4; trial++ {
				xs := shape(n)
				checkMedians(t, fmt.Sprintf("%s n=%d", name, n), xs)
				if n > 64 {
					continue // NaN at every position of a long input is 10⁴ sorts; two spots do
				}
				for at := 0; at < n; at++ {
					withNaN := append([]float64(nil), xs...)
					withNaN[at] = math.NaN()
					checkMedians(t, fmt.Sprintf("%s n=%d NaN@%d", name, n, at), withNaN)
				}
			}
			if n > 64 {
				xs := shape(n)
				xs[0], xs[n/2] = math.NaN(), math.NaN()
				checkMedians(t, fmt.Sprintf("%s n=%d NaN@0,%d", name, n, n/2), xs)
			}
		}
	}
	if _, err := MedianInPlace(nil); err != ErrEmpty {
		t.Fatalf("MedianInPlace(nil): %v, want ErrEmpty", err)
	}
	if _, err := MAD(nil); err != ErrEmpty {
		t.Fatalf("MAD(nil): %v, want ErrEmpty", err)
	}
}

// TestSelectNthAgainstPivotKiller: an input arranged so every
// median-of-three pivot is near the window's edge exhausts the round
// budget; the sorted fallback must still put the right value at k.
func TestSelectNthAgainstPivotKiller(t *testing.T) {
	for _, n := range []int{13, 100, 1001, 4096} {
		// The organ-pipe shape: rising to the middle, then falling.
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
		checkMedians(t, fmt.Sprintf("organ-pipe n=%d", n), xs)
		// Every third value the window's least: a median-of-three
		// pivot then sits near the bottom round after round.
		for i := range xs {
			xs[i] = float64(i)
			if i%3 == 0 {
				xs[i] = float64(-i)
			}
		}
		checkMedians(t, fmt.Sprintf("saw n=%d", n), xs)
	}
}

// FuzzMedianMatchesSort holds MedianInPlace, Median and MAD to
// sort+quantileSorted bit for bit. Each 8-byte word of data is one
// float's bits; with small set, each byte instead picks one of a few
// values (ties, ±0, ±Inf, NaN), which raw bits rarely reach.
func FuzzMedianMatchesSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, true)
	f.Add([]byte{0, 3, 3, 9, 9, 9, 4, 4, 2, 1, 0, 8, 7, 6, 5, 3, 2}, true)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)), math.Float64bits(math.NaN())), false)
	f.Fuzz(func(t *testing.T, data []byte, small bool) {
		alphabet := [...]float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.25, 1, 1, 2, math.Inf(1), math.NaN(), 3, 1e-310}
		var xs []float64
		if small {
			for _, b := range data {
				xs = append(xs, alphabet[int(b)%len(alphabet)])
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		}
		checkMedians(t, "fuzz input", xs) // the fuzzer records the input itself
	})
}
