// Command sidqclean runs the quality-aware cleaning pipeline over a
// trajectory CSV (as produced by sidqsim): it assesses the data, plans
// the stages needed to meet the default quality targets, executes them,
// and writes the cleaned CSV plus a quality report to stderr.
//
// Usage:
//
//	sidqsim -out dirty.csv
//	sidqclean -in dirty.csv -out clean.csv -maxspeed 20
//	sidqclean -readings -in sensors.csv -out clean.csv
//
// With -readings the input is a sensor-reading CSV
// ("sensor,t,x,y,value"); the pipeline then runs reading-side stages
// (deduplication + thematic repair) instead of trajectory stages.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"sidq/internal/core"
	"sidq/internal/obs"
	"sidq/internal/quality"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func main() {
	var (
		in       = flag.String("in", "-", "input CSV ('-' = stdin)")
		out      = flag.String("out", "-", "output CSV ('-' = stdout)")
		maxSpeed = flag.Float64("maxspeed", 20, "physical speed bound (m/s) for consistency checks")
		interval = flag.Float64("interval", 1, "nominal sampling interval (s)")
		readings = flag.Bool("readings", false, "input is a sensor-reading CSV (sensor,t,x,y,value)")
		metrics  = flag.Bool("metrics", false, "dump the Prometheus metrics exposition to stderr after cleaning")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		core.InitRunnerMetrics(reg)
	}
	defer dumpMetrics(reg)

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("sidqclean: %v", err)
		}
		defer f.Close()
		r = f
	}
	if *readings {
		cleanReadings(r, *out, reg)
		return
	}
	trs, err := trajectory.ReadCSVColumns(r)
	if err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
	ds := &core.Dataset{
		Trajectories:     trs,
		ExpectedInterval: *interval,
		MaxSpeed:         *maxSpeed,
	}
	cleaned, stages, _, err := core.PlanAndRunIterativeWith(context.Background(), cleaningRunner(reg), ds, core.DefaultTargets(), 3)
	if err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sidqclean: %d trajectories, planned %d stages\n", len(trs), len(stages))
	for _, s := range stages {
		fmt.Fprintf(os.Stderr, "  - %s (%s)\n", s.Name(), s.Task())
	}
	fmt.Fprintln(os.Stderr, "quality movement (+ improved / - regressed / = unchanged):")
	fmt.Fprint(os.Stderr, indent(quality.Diff(ds.Assess(), cleaned.Assess())))

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("sidqclean: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := trajectory.WriteCSV(w, cleaned.Trajectories); err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
}

func cleanReadings(r io.Reader, outPath string, reg *obs.Registry) {
	rs, err := stid.ReadCSV(r)
	if err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
	ds := &core.Dataset{Readings: rs}
	cleaned, _, err := cleaningRunner(reg).Run(context.Background(), ds, core.ReadingsStages())
	if err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
	_, before := ds.AssessParts()
	_, after := cleaned.AssessParts()
	fmt.Fprintf(os.Stderr, "sidqclean: %d readings -> %d after dedup + thematic repair\n", len(rs), len(cleaned.Readings))
	fmt.Fprintln(os.Stderr, "quality movement (+ improved / - regressed / = unchanged):")
	fmt.Fprint(os.Stderr, indent(quality.Diff(before, after)))
	var w io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			log.Fatalf("sidqclean: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := stid.WriteCSV(w, cleaned.Readings); err != nil {
		log.Fatalf("sidqclean: %v", err)
	}
}

// cleaningRunner builds the pipeline runner, attaching the registry
// when -metrics is set (reg may be nil).
func cleaningRunner(reg *obs.Registry) *core.Runner {
	return &core.Runner{Policy: core.SkipStage, Obs: reg}
}

func dumpMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "=== metrics ===")
	_ = reg.WritePrometheus(os.Stderr)
}

// indent prefixes every line of s, each of which ends in a newline.
func indent(s string) string {
	if s == "" {
		return ""
	}
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}
