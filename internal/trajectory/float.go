package trajectory

// Wire floats. Every point row the codec reads or writes is three
// floats, and the feed's are short decimals: integer timestamps and
// centimetre coordinates. strconv spends 50-100 ns on each in readFloat
// or Ryu, where integer arithmetic and one division prove them in a
// fraction of that. The two paths below take a value only when they can
// show strconv's answer, and hand everything else to strconv unchanged.

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// pow10 holds the powers of ten a float64 represents exactly, upow10
// those up to the fast path's 15 digits.
var (
	pow10 = [...]float64{
		1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
	}
	upow10 = [...]uint64{
		1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15,
	}
)

// parseFloat is strconv.ParseFloat(s, 64): the same bits for every
// input, the same error for every input it refuses.
func parseFloat(s string) (float64, error) {
	if f, ok := parseShortFloat(s); ok {
		return f, nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseShortFloat is parseFloat's fast path. A field -?[0-9]+(\.[0-9]+)?
// whose digits m are below 2^53 and whose fraction has k <= 22 digits is
// float64(m) / 1e<k>, negated first. Both operands are exact, so the one
// correctly rounded division is the correctly rounded value (Clinger's
// fast path, the one strconv takes for such input itself). Anything
// else, from an exponent or a sign of + to the seventeenth significant
// digit, it reports false for.
func parseShortFloat(s string) (float64, bool) {
	neg := s != "" && s[0] == '-'
	if neg {
		s = s[1:]
	}
	// m's digits are the bytes past the leading zeros, less a point still
	// to come. 17 of them make m at least 1e16 > 2^53: skip the scan.
	lead, point := 0, 0
	for ; lead < len(s) && (s[lead] == '0' || s[lead] == '.'); lead++ {
		if s[lead] == '.' {
			point = 1
		}
	}
	if s == "" || len(s)-lead+point > 17 {
		return 0, false
	}
	m, j, ok := scanDigits(s, 0)
	if !ok || j == 0 {
		return 0, false
	}
	k := 0
	if j < len(s) {
		if k = len(s) - j - 1; s[j] != '.' || k == 0 || k >= len(pow10) {
			return 0, false
		}
		if m, j, ok = scanDigits(s[j+1:], m); !ok || j != k {
			return 0, false
		}
	}
	f := float64(m)
	if neg {
		f = -f
	}
	return f / pow10[k], true
}

// scanDigits extends m by the run of decimal digits s starts with, and
// returns the run's length; ok is false once m reaches 2^53.
func scanDigits(s string, m uint64) (_ uint64, n int, ok bool) {
	for n = 0; n < len(s); n++ {
		c := s[n] - '0'
		if c > 9 {
			break
		}
		if m = m*10 + uint64(c); m >= 1<<53 {
			return m, n, false
		}
	}
	return m, n, true
}

// AppendFloat appends f as strconv.AppendFloat(dst, f, fmt, -1, 64)
// does, byte for byte.
//
// For fmt 'g' and 'f', ±0 and the integers below 1e15 (1e6 for 'g')
// are their digits. Any other value is scaled by 10^k to 15 integer
// digits and rounded to M; if float64(M)/1e<k> is f again, M/10^k is a
// decimal of at most 15 significant digits that parses to f, and as
// such decimals survive a round trip (DBL_DIG), it is the only one: so
// it is strconv's shortest, laid out as %f. 'g' takes the %f layout only
// for exponents in [-4, 6); the rest of 'g', 16- and 17-digit values,
// non-finite values and every other fmt are strconv's.
func AppendFloat(dst []byte, f float64, fmt byte) []byte {
	if b, ok := appendShortFloat(dst, f, fmt); ok {
		return b
	}
	return strconv.AppendFloat(dst, f, fmt, -1, 64)
}

// appendShortFloat is AppendFloat's fast path; it appends nothing and
// reports false for a value it cannot prove.
func appendShortFloat(dst []byte, f float64, fmt byte) ([]byte, bool) {
	a := math.Abs(f)
	switch {
	case fmt == 'f' && a < 1e15:
	case fmt == 'g' && (a >= 1e-4 && a < 1e6 || a == 0):
	default:
		return dst, false
	}
	// f is ip + fp/10^k, k = 0 for an integer. ip is exact, as a < 1e15,
	// and int64 converts in one instruction where uint64 branches.
	ip, fp, k := int64(a), uint64(0), 0
	if float64(ip) != a {
		// floor(log10 a) is e or e+1, e from the binary exponent; scaling
		// to 15 integer digits takes k = 14-e, or one less.
		e := (int(math.Float64bits(a)>>52) - 1023) * 78913 >> 18
		if k = 14 - e; k >= len(pow10) {
			return dst, false
		}
		p := a * pow10[k]
		if p >= 1e15 {
			k--
			p = a * pow10[k]
		}
		// A short decimal scales to within a rounding error of an
		// integer; reject the rest before paying for the division that
		// proves it.
		mi := int64(p + 0.5)
		if d := p - float64(mi); d > 0.125 || d < -0.125 || float64(mi)/pow10[k] != a {
			return dst, false
		}
		m := uint64(mi)
		// Strip the trailing zeros, at most 15, by halves.
		if m%1e8 == 0 {
			m, k = m/1e8, k-8
		}
		if m%1e4 == 0 {
			m, k = m/1e4, k-4
		}
		if m%100 == 0 {
			m, k = m/100, k-2
		}
		if m%10 == 0 {
			m, k = m/10, k-1
		}
		// f is m/10^k and not an integer, so k > 0, and a's integer part
		// is that of m/10^k: a is within far less than 10^-k of it.
		fp = m
		if ip > 0 {
			fp -= uint64(ip) * upow10[k]
		}
	}
	// Lay out the sign, the integer part and, past a point, k fraction
	// digits, right to left in place, two digits a step.
	sign := 0
	if math.Signbit(f) {
		sign = 1
	}
	u := uint64(ip)
	w := sign + decimalLen(u) + k
	if k > 0 {
		w++
	}
	n := len(dst)
	dst = slices.Grow(dst, w)[:n+w]
	b := dst[n:]
	i := w
	if k > 0 {
		for ; k >= 2; k -= 2 {
			i -= 2
			fp = put2(b[i:], fp)
		}
		if k == 1 {
			i--
			b[i] = byte('0' + fp)
		}
		i--
		b[i] = '.'
	}
	for u >= 10 {
		i -= 2
		u = put2(b[i:], u)
	}
	if i > sign {
		i--
		b[i] = byte('0' + u)
	}
	if sign == 1 {
		b[0] = '-'
	}
	return dst, true
}

// decimalLen is the number of decimal digits of u, 1 for 0.
func decimalLen(u uint64) int {
	n := bits.Len64(u) * 1233 >> 12
	if u >= upow10[n] {
		n++
	}
	return max(n, 1)
}

// digitPairs is "00", "01", ... "99" back to back.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// put2 writes the last two decimal digits of m to b[0:2] and returns
// the digits above them.
func put2(b []byte, m uint64) uint64 {
	q := m / 100
	r := (m - q*100) * 2
	b[0], b[1] = digitPairs[r], digitPairs[r+1]
	return q
}
