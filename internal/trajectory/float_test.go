package trajectory

// The wire-float fast paths against strconv, the functions they stand
// in for.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// wireFloatSeeds are the values at which a fast path changes its mind:
// the 'g' layout bounds, JSON's, the integer limit, 2^53, and the
// classic 17-digit and extreme values.
var wireFloatSeeds = []float64{
	0, math.Copysign(0, -1), 57, -57, 5144.86, -5144.86, 1e-4, math.Nextafter(1e-4, 0),
	1e-6, 1.5e-6, 999999.5, 1e6, 123456.5, 1e15 - 1, 1e15, 1 << 53, 0.1, 0.30000000000000004,
	5e-324, math.MaxFloat64,
}

// wireFloatStrings are parse inputs strconv alone may answer.
var wireFloatStrings = []string{
	"1.", ".5", "+1", "1e5", "0x1p-2", "1_0", "Inf", "nan", "-", "", "-.5", "1.2.3", "--1", "1,5",
	"0.00000000000000000000001", "0.0000000000000000000001", "9007199254740991", "9007199254740992",
	"-0", "-0.000", "0000000000000000000000000000057", "5144.8612345678912", "1.0000000000000000",
}

// checkFormat holds AppendFloat to strconv.AppendFloat at f, for 'g'
// and 'f', appending after a prefix it must leave alone.
func checkFormat(t testing.TB, f float64) {
	t.Helper()
	for _, verb := range []byte{'g', 'f'} {
		want := strconv.AppendFloat([]byte("x,"), f, verb, -1, 64)
		if got := AppendFloat([]byte("x,"), f, verb); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%#x, %c) = %q, strconv writes %q", math.Float64bits(f), verb, got, want)
		}
	}
}

// checkParse holds parseFloat to strconv.ParseFloat at s: the same
// bits, the same error text.
func checkParse(t testing.TB, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	got, gotErr := parseFloat(s)
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv says %v (%#x), %v",
			s, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
	}
}

// checkWireFloat runs f through both directions: its format, and the
// parse of strconv's 'g', 'f', 'f' with 1-6 decimals and 'e' text of it.
func checkWireFloat(t testing.TB, f float64) {
	t.Helper()
	checkFormat(t, f)
	checkParse(t, strconv.FormatFloat(f, 'g', -1, 64))
	checkParse(t, strconv.FormatFloat(f, 'f', -1, 64))
	checkParse(t, strconv.FormatFloat(f, 'e', -1, 64))
	for prec := 1; prec <= 6; prec++ {
		checkParse(t, strconv.FormatFloat(f, 'f', prec, 64))
	}
}

func FuzzWireFloat(f *testing.F) {
	for _, v := range wireFloatSeeds {
		f.Add(int64(0), uint8(0), math.Float64bits(v), strconv.FormatFloat(v, 'f', -1, 64))
	}
	f.Add(int64(514486), uint8(2), uint64(0), "5144.86")
	f.Add(int64(-57), uint8(0), uint64(0), "-57")
	f.Add(int64(999999999999999), uint8(22), uint64(0), "0."+strings.Repeat("1", 23))
	for _, s := range wireFloatStrings {
		f.Add(int64(1), uint8(1), uint64(0), s)
	}
	f.Fuzz(func(t *testing.T, m int64, k uint8, bits uint64, s string) {
		checkWireFloat(t, float64(m)/math.Pow10(int(k%23)))
		checkWireFloat(t, math.Float64frombits(bits))
		checkParse(t, s)
	})
}

// TestWireFloatMatchesStrconv runs 2x10^5 values through both
// directions: m/10^k across every digit count the fast paths take or
// refuse, and raw bit patterns.
func TestWireFloatMatchesStrconv(t *testing.T) {
	for _, v := range wireFloatSeeds {
		checkWireFloat(t, v)
		checkWireFloat(t, -v)
	}
	for _, s := range wireFloatStrings {
		checkParse(t, s)
	}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 100_000; i++ {
		m := rng.Int63n(int64(pow10[1+rng.Intn(17)]))
		if rng.Intn(2) == 0 {
			m = -m
		}
		checkWireFloat(t, float64(m)/pow10[rng.Intn(len(pow10))])
	}
	for i := 0; i < 100_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if a := math.Abs(v); a >= 1e-30 && a < 1e30 {
			checkWireFloat(t, v)
			continue
		}
		// Beyond 1e±30 the 'f' texts run to hundreds of digits, which
		// strconv reads in its slow path at ~40 µs a value: FuzzWireFloat
		// parses those, this parses the 'g' and 'e' texts.
		checkFormat(t, v)
		checkParse(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkParse(t, strconv.FormatFloat(v, 'e', -1, 64))
	}
}

// TestWireFloatTakesShortDecimals: the fast paths must not quietly
// decline the values they exist for, the feed's integers and
// centimetres and every decimal of up to 15 significant digits.
func TestWireFloatTakesShortDecimals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20_000; i++ {
		m := rng.Int63n(int64(pow10[1+rng.Intn(15)]))
		k := rng.Intn(8)
		v := float64(m) / pow10[k]
		if _, ok := appendShortFloat(nil, v, 'f'); !ok {
			t.Fatalf("%d/1e%d = %v: format fell back", m, k, v)
		}
		s := strconv.FormatFloat(v, 'f', k, 64)
		if k == 0 {
			s = strconv.FormatInt(m, 10)
		}
		if v, ok := parseShortFloat(s); !ok || v != float64(m)/pow10[k] {
			t.Fatalf("%q: parse fell back", s)
		}
	}
}

var (
	sinkBytes []byte
	sinkFloat float64
)

// BenchmarkWireFloat times each direction, fast path and strconv, on
// an integer timestamp, a centimetre coordinate, a 15-digit value and
// a 17-digit one (what Kalman smoothing writes).
func BenchmarkWireFloat(b *testing.B) {
	for _, v := range []float64{57, 5144.86, 5144.86123456789, 5144.8612345678985} {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		name := fmt.Sprintf("%dd", strings.Count(strings.TrimLeft(s, "0."), "")-1-strings.Count(s, "."))
		buf := make([]byte, 0, 32)
		b.Run("format/"+name+"/fast", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBytes = AppendFloat(buf, v, 'g')
			}
		})
		b.Run("format/"+name+"/strconv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBytes = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
		})
		b.Run("parse/"+name+"/fast", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat, _ = parseFloat(s)
			}
		})
		b.Run("parse/"+name+"/strconv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat, _ = strconv.ParseFloat(s, 64)
			}
		})
	}
}
