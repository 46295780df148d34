// Command sidqbench regenerates the experiment tables documented in
// DESIGN.md and EXPERIMENTS.md: the empirical Table 1 (T1), the
// Figure-2 taxonomy coverage matrix (F2), and the taxonomy experiments
// E1-E14.
//
// Usage:
//
//	sidqbench                 # run everything, serially
//	sidqbench -exp E4,E7      # run selected experiments
//	sidqbench -seed 7         # change the workload seed
//	sidqbench -workers 4      # up to 4 experiments at once
//	sidqbench -metrics        # dump Prometheus metrics to stderr afterwards
//
// Tables are bit-identical for every worker count; running experiments
// at once changes only wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sidq/internal/core"
	"sidq/internal/exp"
	"sidq/internal/obs"
	"sidq/internal/roadnet"
	"sidq/internal/stream"
)

func main() {
	var (
		which   = flag.String("exp", "all", "comma-separated experiment ids (T1, F2, E1a..E14) or 'all'")
		seed    = flag.Int64("seed", 42, "workload seed")
		workers = flag.Int("workers", 1, "experiments run at once (0 or negative: NumCPU)")
		metrics = flag.Bool("metrics", false, "dump the Prometheus metrics exposition to stderr after the run")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		core.InitRunnerMetrics(reg)
		roadnet.InstrumentTo(reg)
		stream.InstrumentTo(reg)
		exp.SetObsRegistry(reg)
	}

	want := map[string]bool{}
	all := *which == "all"
	if !all {
		for _, id := range strings.Split(*which, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	ran := 0
	if all || want["T1"] {
		fmt.Println("=== T1: Table 1 — SID characteristics and measured quality issues ===")
		fmt.Println(exp.T1(*seed))
		ran++
	}
	if all || want["F2"] {
		fmt.Println("=== F2: Figure 2 — DQ technology taxonomy coverage ===")
		fmt.Println(exp.F2())
		ran++
	}
	ids := want
	if all {
		ids = nil
	}
	for _, r := range exp.RunSelected(*seed, *workers, ids) {
		fmt.Println(r.Text)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sidqbench: no experiment matched %q\n", *which)
		os.Exit(2)
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "=== metrics ===")
		_ = reg.WritePrometheus(os.Stderr)
	}
}
