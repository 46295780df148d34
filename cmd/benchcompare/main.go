// Command benchcompare diffs a fresh benchmark run (benchjson output
// on stdin) against a committed BENCH_<date>.json baseline and fails
// when a gated benchmark regressed beyond the threshold.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkE[12]_' -benchmem . \
//	    | go run ./cmd/benchjson \
//	    | go run ./cmd/benchcompare
//
// With no -baseline flag the lexicographically-latest BENCH_*.json in
// the working directory is used, so dated baselines supersede each
// other naturally (see `make bench-json`). Every row shared between
// the two documents is reported; only rows matching -gate (default:
// the E1/E2 experiment rows, the matcher's rows — SnapDists over the
// serving benchmark's city, cold and warm, KNearest over the same city,
// and OnlineMapMatch — and the
// clean path's KalmanSmooth and Pipeline rows) can fail
// the run, and only when ns/op or
// allocs/op regressed by more than -threshold (default 20%).
//
// b_per_op is compared too, but advisorily: a gated row whose bytes/op
// regressed beyond the threshold while ns/op and allocs/op stayed flat
// is reported as a warning without failing the run. Layout regressions
// usually show up in bytes first (bigger transient buffers at the same
// allocation count), so the warning surfaces them in the bench job
// before they grow into time; promote with -strict-bytes once a
// baseline has settled.
//
// -advisory downgrades gated failures to an explicit "ADVISORY
// REGRESSION" summary line with exit 0, for shared CI runners whose
// timing noise makes a hard gate flap — the bench job greps for the
// line and annotates the build instead of silently swallowing a
// non-zero exit with continue-on-error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// Result mirrors cmd/benchjson's per-benchmark row.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Document mirrors cmd/benchjson's output document.
type Document struct {
	Date       string   `json:"date"`
	Benchmarks []Result `json:"benchmarks"`
}

func latestBaseline() (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline in %s", mustGetwd())
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

func loadDoc(path string) (Document, error) {
	var d Document
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

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

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func main() {
	baseline := flag.String("baseline", "", "baseline BENCH_*.json (default: lexicographically latest in cwd)")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression in ns/op and allocs/op (and b/op when gated)")
	gate := flag.String("gate", `^BenchmarkE[12]_|^BenchmarkSnapDists/city|^BenchmarkOnlineMapMatch$|^BenchmarkKNearest$|^BenchmarkKalmanSmooth$|^BenchmarkPipeline$`, "regexp of benchmark names that can fail the comparison")
	strictBytes := flag.Bool("strict-bytes", false, "promote b_per_op regressions from advisory warnings to failures")
	advisory := flag.Bool("advisory", false, "report gated regressions as an explicit ADVISORY REGRESSION summary and exit 0 (shared-runner bench jobs)")
	flag.Parse()

	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: bad -gate: %v\n", err)
		os.Exit(2)
	}
	path := *baseline
	if path == "" {
		path, err = latestBaseline()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(2)
		}
	}
	old, err := loadDoc(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: baseline %s: %v\n", path, err)
		os.Exit(2)
	}
	var fresh Document
	if err := json.NewDecoder(os.Stdin).Decode(&fresh); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: stdin is not a benchjson document: %v\n", err)
		os.Exit(2)
	}

	base := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		base[r.Name] = r
	}
	// Fold repeated rows (a `go test -count=N` run) to their best
	// observation: min ns/op and min allocs/op. Comparing best-of-N
	// against the baseline filters scheduler noise one-sidedly, which
	// is what a regression gate wants — a real regression shifts the
	// floor, noise only shifts the ceiling.
	fresh.Benchmarks = foldBest(fresh.Benchmarks)
	fmt.Printf("baseline: %s (%s)\n", path, old.Date)
	var failures, advisories []string
	compared := 0
	for _, r := range fresh.Benchmarks {
		b, ok := base[r.Name]
		if !ok {
			fmt.Printf("  %-50s  new benchmark (no baseline row)\n", r.Name)
			continue
		}
		compared++
		nsDelta := pctDelta(b.NsPerOp, r.NsPerOp)
		allocDelta := pctDelta(float64(b.AllocsPerOp), float64(r.AllocsPerOp))
		bDelta := pctDelta(float64(b.BPerOp), float64(r.BPerOp))
		gated := gateRe.MatchString(r.Name)
		marker := " "
		nsBad := b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+*threshold)
		allocBad := b.AllocsPerOp > 0 && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+*threshold)
		bBad := b.BPerOp > 0 && float64(r.BPerOp) > float64(b.BPerOp)*(1+*threshold)
		switch {
		case gated && (nsBad || allocBad || (bBad && *strictBytes)):
			marker = "!"
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op %.0f -> %.0f (%+.1f%%), allocs/op %d -> %d (%+.1f%%), B/op %d -> %d (%+.1f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, nsDelta, b.AllocsPerOp, r.AllocsPerOp, allocDelta, b.BPerOp, r.BPerOp, bDelta))
		case gated && bBad:
			marker = "~"
			advisories = append(advisories, fmt.Sprintf(
				"%s: B/op %d -> %d (%+.1f%%)", r.Name, b.BPerOp, r.BPerOp, bDelta))
		}
		fmt.Printf("%s %-50s  ns/op %12.0f -> %12.0f (%+7.1f%%)   allocs/op %8d -> %8d (%+7.1f%%)   B/op %10d -> %10d (%+7.1f%%)\n",
			marker, r.Name, b.NsPerOp, r.NsPerOp, nsDelta, b.AllocsPerOp, r.AllocsPerOp, allocDelta, b.BPerOp, r.BPerOp, bDelta)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: no overlapping benchmark rows with the baseline")
		os.Exit(2)
	}
	if len(advisories) > 0 {
		fmt.Printf("\nbenchcompare: %d advisory b_per_op regression(s) beyond %.0f%% (not failing; -strict-bytes promotes):\n",
			len(advisories), *threshold*100)
		for _, a := range advisories {
			fmt.Printf("  ~ %s\n", a)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchcompare: %d gated regression(s) beyond %.0f%%:\n", len(failures), *threshold*100)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		if *advisory {
			// Shared CI runners are too noisy for a hard timing gate, but a
			// silent continue-on-error buries real regressions. -advisory
			// makes the outcome explicit and greppable: the bench job scans
			// for this line and annotates the build instead of failing it.
			fmt.Printf("ADVISORY REGRESSION: %d gated regression(s) beyond %.0f%% (advisory mode, not failing the job)\n",
				len(failures), *threshold*100)
			return
		}
		os.Exit(1)
	}
	fmt.Printf("benchcompare: %d rows compared, no gated regressions beyond %.0f%%\n", compared, *threshold*100)
}
