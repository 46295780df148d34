package main

// -compare a.json b.json: b (the change, or the second set of the same
// commit) against a (the baseline), every end-to-end metric of every
// workload against its bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// pairStatus is the verdict on one (workload, metric) pair.
type pairStatus string

const (
	statusOK         pairStatus = "ok"
	statusUnresolved pairStatus = "unresolved" // the inputs' own spread is wider than the bound
	statusViolation  pairStatus = "VIOLATION"
)

// comparePair judges one metric: worse is how far b's median lies on
// the wrong side of a's, as a share of a's median (negative: better).
// A pair whose own run-to-run spread exceeds the bound cannot be called
// unchanged; it is unresolved unless every run of b reads better than
// every run of a.
func comparePair(d metricDef, a, b []float64) (worse, noise float64, st pairStatus) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if d.better == "higher" {
		worse = -worse
	}
	noise = math.Max(spread(a), spread(b))
	switch {
	case noise > d.bound && !allBetter(d, a, b):
		return worse, noise, statusUnresolved
	case worse > d.bound:
		return worse, noise, statusViolation
	}
	return worse, noise, statusOK
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.better == "lower" && y >= x) || (d.better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints the comparison and returns the exit code: 1 on a
// violation, 2 when the two files are not comparable at all.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b resultFile
		if b, err = readResult(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
	return 2
}

func compareResults(w io.Writer, a, b resultFile) int {
	ea, eb := a.Env, b.Env
	if ea.NProc != eb.NProc || ea.Clients != eb.Clients || ea.Seed != eb.Seed || ea.Seconds != eb.Seconds || ea.Smoke != eb.Smoke {
		fmt.Fprintf(w, "not comparable: nproc %d vs %d, clients %d vs %d, seed %d vs %d, seconds %g vs %g, smoke %v vs %v\n",
			ea.NProc, eb.NProc, ea.Clients, eb.Clients, ea.Seed, eb.Seed, ea.Seconds, eb.Seconds, ea.Smoke, eb.Smoke)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "status")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			sa, sb := a.Workloads[wl][d.name], b.Workloads[wl][d.name]
			if sa == nil || sb == nil || len(sa.Values) == 0 || len(sb.Values) == 0 {
				fmt.Fprintf(w, "%-15s %-18s missing from one of the files\n", wl, d.name)
				code = max(code, 2)
				continue
			}
			worse, noise, st := comparePair(d, sa.Values, sb.Values)
			fmt.Fprintf(w, "%-15s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl, d.name, sa.Median, sb.Median, 100*worse, 100*noise, 100*d.bound, st)
			if st == statusViolation {
				code = max(code, 1)
			}
		}
	}
	return code
}
