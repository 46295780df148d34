// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a machine-readable JSON document on stdout, so benchmark
// baselines can be committed (BENCH_<date>.json) and diffed across
// changes instead of eyeballed.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_$(date +%F).json
//
// Lines that are not benchmark results (goos/goarch/cpu/pkg headers)
// are folded into the document metadata; anything else is ignored.
//
// With -fold, repeated rows from a `-count N` run collapse to one row
// per benchmark holding the best (minimum) observation of each metric,
// with runs summed — the same one-sided noise filter benchcompare
// applies to fresh runs, so a committed baseline taken with -count 3
// records the machine's floor rather than one arbitrary sample.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Document is the full report.
type Document struct {
	Date       string   `json:"date"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkFoo/bar=4-8   120   9123456 ns/op   2048 B/op   12 allocs/op
//
// The trailing -N (GOMAXPROCS suffix) is stripped from the name so runs
// from different machines compare by benchmark identity. Metrics a
// benchmark reports itself (b.ReportMetric: "123 hits/op") print
// between ns/op and B/op; they are skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:(?:\s+[\d.e+-]+ \S+)*?\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// foldBest collapses repeated rows per name to the minimum observation
// of each metric, summing runs. Mirrors cmd/benchcompare's fold.
func foldBest(rows []Result) []Result {
	idx := make(map[string]int, len(rows))
	var out []Result
	for _, r := range rows {
		i, seen := idx[r.Name]
		if !seen {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = r.NsPerOp
		}
		if r.AllocsPerOp < out[i].AllocsPerOp {
			out[i].AllocsPerOp = r.AllocsPerOp
		}
		if r.BPerOp < out[i].BPerOp {
			out[i].BPerOp = r.BPerOp
		}
		out[i].Runs += r.Runs
	}
	return out
}

func main() {
	fold := flag.Bool("fold", false, "collapse repeated rows (a -count N run) to best-of-N per benchmark")
	flag.Parse()
	doc := Document{Date: time.Now().UTC().Format(time.RFC3339)}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			runs, _ := strconv.Atoi(m[2])
			ns, _ := strconv.ParseFloat(m[3], 64)
			r := Result{Name: m[1], Pkg: pkg, Runs: runs, NsPerOp: ns}
			if m[4] != "" {
				r.BPerOp, _ = strconv.ParseInt(m[4], 10, 64)
				r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			}
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if *fold {
		doc.Benchmarks = foldBest(doc.Benchmarks)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin (did you pass -bench?)")
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
}
