package server

// The row writer against encoding/json, the encoder it replaced.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/session"
)

// hostileFloats are the values at which encoding/json changes float
// format or strconv its digit count, plus the ones a careless encoder
// gets wrong, plus the short decimals trajectory.AppendFloat's fast
// path takes and the bounds where it hands over to strconv.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, 1e6, 123456789, 4503599627370497.5,
	1e20, 999999999999999868928, 1e21, 1e21 + 1e6, -1e21, 1.7976931348623157e308,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 5e-324, 2.2250738585072014e-308, 0.1, 0.30000000000000004,
	57, -57, 5144.86, -5144.86, 1e-4, math.Nextafter(1e-4, 0), 1.5e-6, 999999.5, 123456.5,
	1e15 - 1, 1e15, 1 << 53, 0.000123, 12345678901234.5, 5144.8612345678985,
}

var hostileSources = []string{
	"car-1", "car-2", "bus 7", `quo"te\back`, "<html>&amp;", "line sep ",
	"bad\xff\xfeutf8", "tab\tnl\n\x00\x1f", "dé–já", "comma,and\"quote",
}

// TestRowWriterMatchesEncodingJSON: the row writer's bytes against
// json.Encoder's for the same session.Result, over the hostile values,
// every hostile source, random bit patterns and short decimals, and the
// edge field.
func TestRowWriterMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := append([]float64(nil), hostileFloats...)
	for len(floats) < 5000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
		// A short decimal, as the feed's centimetres and timestamps are.
		floats = append(floats, float64(rng.Int63n(1e9)-5e8)/math.Pow10(rng.Intn(10)))
	}
	rb := new(rowBuf)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	edge := -12
	for i, f := range floats {
		res := session.Result{Source: hostileSources[i%len(hostileSources)], T: f, X: floats[(i*7+1)%len(floats)], Y: -f}
		if i%3 == 0 {
			res.Edge = &edge
		}
		want.Reset()
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		rb.buf = rb.buf[:0]
		if err := rb.appendRow(rb.sourceJSONBytes([]byte(res.Source)), res.T, res.X, res.Y, res.Edge); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb.buf, want.Bytes()) {
			t.Fatalf("row %d: wrote %q, json.Encoder writes %q", i, rb.buf, want.Bytes())
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		wantErr := enc.Encode(session.Result{T: f})
		if err := rb.appendRow(rb.sourceJSON("s"), f, 0, 0, nil); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("t=%v: error %v, json.Encoder says %v", f, err, wantErr)
		}
	}
}
