package server

// queryValue reads one query parameter without building url.Values.
// Its contract is url.ParseQuery's: the table pins the rules a query
// string can trip (the ';' refusal, '+', a bad escape, a repeated or
// escaped key, an empty pair), FuzzQueryValue compares the two on
// arbitrary queries, and the allocation test holds a plain query to
// none.

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"sidq/internal/israce"
)

// parseQueryGet is the reference: what r.URL.Query().Get(key) returns.
func parseQueryGet(raw, key string) string {
	v, _ := url.ParseQuery(raw) // the pairs that parse are kept whatever the error
	return v.Get(key)
}

func queryRequest(raw string) *http.Request {
	return &http.Request{URL: &url.URL{RawQuery: raw}}
}

func TestQueryValueMatchesParseQuery(t *testing.T) {
	// url.ParseQuery of Go 1.24.0, which queryValue mirrors, has no cap
	// on the number of pairs; a toolchain that caps it fails this row.
	manyPairs := strings.Repeat("p=0&", 10_000) + "a=1"
	for _, c := range []struct{ raw, key, want string }{
		{"", "a", ""},
		{"a=1", "a", "1"},
		{"a=1&a=2", "a", "1"},                  // the first value wins
		{"a=1;b=2&a=3", "a", "3"},              // a pair holding ';' is skipped
		{"a=1;b=2&a=3", "b", ""},               // ... and names nothing
		{"q=a+b%20c", "q", "a b c"},            // '+' and %20 are both a space
		{"a=%zz&a=2", "a", "2"},                // a value that does not unescape is skipped
		{"a%zz=1&a=2", "a", "2"},               // so is a key
		{"min%78=5&minx=6", "minx", "5"},       // an escaped key is its unescaped name
		{"&&a=1&", "a", "1"},                   // empty pairs are nothing
		{"&&", "", ""},                         // ... not even an empty key
		{"=x", "", "x"},                        // an empty key with a value is one
		{"a", "a", ""},                         // a key with no '=' has the empty value
		{"a&a=2", "a", ""},                     // ... which wins as the first
		{"session=s-1&seq=7", "seq", "7"},      // the ingest route's pair
		{"format=csv&maxt=1e3", "maxt", "1e3"}, // a history bound
		{manyPairs, "a", "1"},                  // the 10 001st pair is read
	} {
		if ref := parseQueryGet(c.raw, c.key); ref != c.want {
			t.Fatalf("table row %.40q[%q]: url.ParseQuery gives %q, the row says %q", c.raw, c.key, ref, c.want)
		}
		if got := queryValue(queryRequest(c.raw), c.key); got != c.want {
			t.Errorf("queryValue(%.40q, %q) = %q, want %q", c.raw, c.key, got, c.want)
		}
	}
}

// FuzzQueryValue checks queryValue against url.ParseQuery then Get on
// arbitrary raw queries and keys.
func FuzzQueryValue(f *testing.F) {
	for _, seed := range [][2]string{
		{"a=1;b=2&a=3", "a"},
		{"q=a+b", "q"},
		{"a=%zz&a=2", "a"},
		{"a=1&a=2", "a"},
		{"min%78=5&minx=6", "minx"},
		{"&&a=1&", "a"},
		{"=x&&", ""},
		{"minx=-1e9&maxx=%2B5&format=ndjson", "maxx"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want := parseQueryGet(raw, key)
		if got := queryValue(queryRequest(raw), key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q; url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}

// TestQueryValueAllocatesNothing: reading every bound of a history
// query, escapes and all absent, costs no allocation; url.Values made
// one map per read.
func TestQueryValueAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := queryRequest("minx=-5&miny=-5&mint=0&maxx=5&maxy=5&maxt=4095&format=ndjson")
	keys := [...]string{"minx", "miny", "mint", "maxx", "maxy", "maxt", "format", "absent"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			_ = queryValue(r, k)
		}
	})
	if allocs != 0 {
		t.Errorf("reading %d query parameters makes %.0f allocations, want 0", len(keys), allocs)
	}
}
