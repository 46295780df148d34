// Command sidqbench regenerates the experiment tables documented in
// DESIGN.md and EXPERIMENTS.md: the empirical Table 1 (T1), the
// Figure-2 taxonomy coverage matrix (F2), and the taxonomy experiments
// E1-E14.
//
// Usage:
//
//	sidqbench                 # run everything, serially
//	sidqbench -exp E4,E7      # run selected experiments
//	sidqbench -exp E1         # a family: E1a, E1b and E1c
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
		which   = flag.String("exp", "all", "comma-separated experiment ids (T1, F2, E1a..E14; E1 selects E1a-c) or 'all'")
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

	// T1 and F2 print free-form text and are not in exp.All(); every
	// other id must select a table, or nothing runs.
	t1, f2, selected := true, true, exp.All()
	if *which != "all" {
		t1, f2 = false, false
		var ids []string
		for _, id := range strings.Split(*which, ",") {
			switch strings.ToUpper(strings.TrimSpace(id)) {
			case "T1":
				t1 = true
			case "F2":
				f2 = true
			default:
				ids = append(ids, id)
			}
		}
		var err error
		if selected, err = exp.Select(ids); err != nil {
			fmt.Fprintf(os.Stderr, "sidqbench: %v (and T1, F2, all)\n", err)
			os.Exit(2)
		}
	}
	if t1 {
		fmt.Println("=== T1: Table 1 — SID characteristics and measured quality issues ===")
		fmt.Println(exp.T1(*seed))
	}
	if f2 {
		fmt.Println("=== F2: Figure 2 — DQ technology taxonomy coverage ===")
		fmt.Println(exp.F2())
	}
	for _, r := range exp.RunSelected(*seed, *workers, selected) {
		fmt.Println(r.Text)
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "=== metrics ===")
		_ = reg.WritePrometheus(os.Stderr)
	}
}
